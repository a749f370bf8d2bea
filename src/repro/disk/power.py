"""Disk power-state machine and energy accounting (Dempsey-style).

A disk is always in exactly one :class:`PowerState`.  The
:class:`EnergyAccountant` integrates state power over virtual time and adds
the fixed transition energies, exactly the accounting scheme of the Dempsey
power model the paper adopts (§V-A).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.disk.models import DiskSpec


class PowerState(enum.Enum):
    """Power states of a drive.

    ACTIVE: platters spinning, heads servicing an operation.
    IDLE: platters spinning, no operation in service.
    STANDBY: platters stopped (data retained), cannot service I/O.
    SPINNING_UP / SPINNING_DOWN: in transition; cannot service I/O.
    """

    ACTIVE = "active"
    IDLE = "idle"
    STANDBY = "standby"
    SPINNING_UP = "spinning_up"
    SPINNING_DOWN = "spinning_down"
    #: Dead drive: draws no power, services nothing (failure injection).
    FAILED = "failed"

    #: ``Enum.__hash__`` hashes the member *name* through a Python-level
    #: call; power-state keyed dicts sit on the per-op accounting path
    #: (draw + residency lookups twice per serviced op), so use the
    #: C-level identity hash instead.  Members are process-local
    #: singletons, so identity hashing is exact.
    __hash__ = object.__hash__

    @property
    def spun_up(self) -> bool:
        """Whether the platters are at full speed (servicing possible)."""
        return self is _ACTIVE or self is _IDLE


# Members as module constants: a global read costs a fraction of an Enum
# class attribute lookup.
_ACTIVE = PowerState.ACTIVE
_IDLE = PowerState.IDLE


class PowerModel:
    """Maps power states to draw (W) for one drive spec."""

    def __init__(self, spec: DiskSpec) -> None:
        self.spec = spec
        # Transition power such that (power × transition time) reproduces
        # the datasheet transition energy.
        spin_up_power = spec.spin_up_energy / spec.spin_up_time
        spin_down_power = spec.spin_down_energy / spec.spin_down_time
        self._draw: Dict[PowerState, float] = {
            PowerState.ACTIVE: spec.power_active,
            PowerState.IDLE: spec.power_idle,
            PowerState.STANDBY: spec.power_standby,
            PowerState.SPINNING_UP: spin_up_power,
            PowerState.SPINNING_DOWN: spin_down_power,
            PowerState.FAILED: 0.0,
        }

    def draw(self, state: PowerState) -> float:
        return self._draw[state]


class EnergyAccountant:
    """Time-integrates power draw across state changes for one disk."""

    def __init__(
        self, model: PowerModel, start_time: float, initial: PowerState
    ) -> None:
        self._model = model
        # Direct state->watts mapping, so a transition pays no method call
        # per sample.
        self._draw = model._draw
        self._state = initial
        #: Draw of the *current* state, refreshed on every transition, so
        #: the integration step pays no dict lookup for the open span.
        self._watts = self._draw[initial]
        self._last_time = start_time
        self._start_time = start_time
        self.energy_joules = 0.0
        self.state_durations: Dict[PowerState, float] = {
            s: 0.0 for s in PowerState
        }
        self.spin_up_count = 0
        self.spin_down_count = 0
        #: Optional observer fired on each real state *change* (not on the
        #: same-state re-entry that :meth:`close` performs) with
        #: ``(now, old_state, new_state)``; the observability layer hooks it
        #: to trace power spans (``Disk`` fires it for its inline toggle).
        self.on_transition: Optional[
            Callable[[float, PowerState, PowerState], None]
        ] = None

    @property
    def state(self) -> PowerState:
        return self._state

    def transition(self, now: float, new_state: PowerState) -> None:
        """Account time spent in the old state and switch to ``new_state``.

        The one integration rule: ``Disk._start``/``_go_idle`` inline its
        ACTIVE<->IDLE case bit for bit and must change with it.
        """
        last = self._last_time
        if now < last:
            raise ValueError("time went backwards in energy accounting")
        state = self._state
        elapsed = now - last
        if elapsed:
            # Skipping the zero-elapsed accounting is exact (x += 0.0 is
            # the identity) and avoids two dict operations per same-time
            # transition.
            self.energy_joules += self._watts * elapsed
            self.state_durations[state] += elapsed
        self._last_time = now
        if new_state is PowerState.SPINNING_UP:
            self.spin_up_count += 1
        elif new_state is PowerState.SPINNING_DOWN:
            self.spin_down_count += 1
        self._state = new_state
        self._watts = self._draw[new_state]
        if self.on_transition is not None and new_state is not state:
            self.on_transition(now, state, new_state)

    def close(self, now: float) -> None:
        """Integrate up to ``now`` without a state change."""
        self.transition(now, self._state)
        # transition() counts re-entering spin states; undo for a pure close.
        if self._state is PowerState.SPINNING_UP:
            self.spin_up_count -= 1
        elif self._state is PowerState.SPINNING_DOWN:
            self.spin_down_count -= 1

    @property
    def spin_cycle_count(self) -> int:
        """Total spin up + spin down transitions (the Table I metric)."""
        return self.spin_up_count + self.spin_down_count

    def draw(self, state: PowerState) -> float:
        """Power draw of ``state`` under this disk's model (watts)."""
        return self._model.draw(state)

    def energy_for(self, state: PowerState) -> float:
        """Energy attributed to the closed time spent in ``state``."""
        return self.state_durations[state] * self._model.draw(state)

    def elapsed(self, now: float) -> float:
        return now - self._start_time

    def energy_at(self, now: float) -> float:
        """Energy consumed up to ``now``, including the open state span."""
        if now < self._last_time:
            raise ValueError("time went backwards in energy accounting")
        return self.energy_joules + self._watts * (now - self._last_time)

    def duty_fraction(self, state: PowerState, now: float) -> float:
        """Fraction of elapsed time spent in ``state`` (including open span)."""
        total = self.elapsed(now)
        if total <= 0:
            return 0.0
        duration = self.state_durations[state]
        if state is self._state:
            duration += now - self._last_time
        return duration / total

    def mean_power(self, now: float) -> float:
        """Average draw in watts over the elapsed interval."""
        total = self.elapsed(now)
        if total <= 0:
            return 0.0
        open_energy = self._watts * (now - self._last_time)
        return (self.energy_joules + open_energy) / total
