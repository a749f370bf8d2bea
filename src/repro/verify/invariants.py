"""Runtime invariant checker: observe-only structural checks per run.

The checker installs an engine stride (:meth:`Simulator.add_stride`), so
it samples the controller before every ``sample_every``-th event, plus
once at uninstall, without a call on the events in between.  It records
violations of five invariant families without perturbing the run — like
the oracle and the metrics layer, checked runs stay byte-identical to
plain runs:

* **log-space accounting** — every :class:`~repro.core.logspace.LogRegion`
  and its allocator satisfy ``used + free == capacity`` with a sorted,
  disjoint free list (delegates to their ``check_invariants``);
* **power-state legality** — a disk with an operation in service is in
  ACTIVE; in particular nothing is ever serviced on a STANDBY or
  spinning-up/-down disk (the §III-B spin-up gating);
* **rotation legality** — while a rotated-logging scheme is active
  (neither de-activated nor draining) exactly ``n_on_duty`` distinct,
  live mirrors hold the duty token (§III-C); RoLo-E's duty pair and
  RoLo-5's on-duty log index stay in range;
* **destage progress** — once a drain starts, the dirty backlog never
  grows (monotone within one in-flight batch per pair of slack, the
  counting granularity of ``dirty_units_total``); a disk failure resets
  the baseline because aborted destages legally re-dirty their units;
* **energy monotonicity** — cumulative array energy never decreases.

Violations are structured dicts (``check``/``time``/``detail``).  When a
metrics registry is supplied, the checker counts sweeps and violations
under :data:`repro.obs.metrics.VERIFY_CHECKS_TOTAL` /
:data:`repro.obs.metrics.VERIFY_VIOLATIONS_TOTAL`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.disk.power import PowerState

# Enum members as module constants: every sweep compares each disk's state.
_ACTIVE = PowerState.ACTIVE
_FAILED = PowerState.FAILED


class InvariantChecker:
    """Samples structural invariants on an engine stride."""

    def __init__(
        self, sample_every: int = 64, registry=None
    ) -> None:
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.sample_every = sample_every
        self.registry = registry
        self.violations: List[Dict[str, Any]] = []
        self.checks_run = 0
        self.sim = None
        self.controller = None
        self._installed = False
        self._last_energy = 0.0
        self._drain_floor: Optional[int] = None
        self._failed_count = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    def install(self, sim, controller) -> None:
        """Install the sweep as ``sim``'s stride; call before the run.

        The stride counts every dispatched event, fast-forwarded copy
        batches included, so sweeps land on the same event indices as a
        per-event observer's would; it shares the engine's countdown with
        any other stride (the metrics meter's samples), and a stride
        added before it fires first on an event both fall on.
        """
        if self._installed:
            raise RuntimeError("invariant checker already installed")
        self._installed = True
        self.sim = sim
        self.controller = controller
        self._last_energy = controller.total_energy_now()
        self._drain_floor = None
        self._failed_count = sum(
            1 for d in controller.all_disks() if d.failed
        )
        sim.add_stride(self.sample_every, self._check_now)

    def uninstall(self) -> None:
        """Run a final sweep and remove the stride.

        That restores the engine's unobserved run loop when no other
        stride is installed.
        """
        if not self._installed:
            return
        self._check_now()
        self.sim.remove_stride(self._check_now)
        self._installed = False

    # ------------------------------------------------------------------
    def _violate(self, check: str, detail: str) -> None:
        self.violations.append(
            {
                "check": check,
                "time": self.sim.now if self.sim is not None else 0.0,
                "detail": detail,
            }
        )
        if self.registry is not None:
            from repro.obs.metrics import VERIFY_VIOLATIONS_TOTAL

            self.registry.counter(
                VERIFY_VIOLATIONS_TOTAL,
                "Invariant violations detected by the verify checker.",
                check=check,
            ).inc()

    # ------------------------------------------------------------------
    def _check_now(self) -> None:
        self.checks_run += 1
        if self.registry is not None:
            from repro.obs.metrics import VERIFY_CHECKS_TOTAL

            self.registry.counter(
                VERIFY_CHECKS_TOTAL,
                "Invariant sweeps run by the verify checker.",
            ).inc()
        # One list of the disks per sweep; the checks read each disk's
        # service slot and power state off its attributes.
        disks = self.controller.all_disks()
        self._check_log_space()
        self._check_power_legality(disks)
        self._check_rotation()
        self._check_destage_progress(disks)
        self._check_energy(disks)

    def _check_log_space(self) -> None:
        for region in self.controller.log_regions():
            try:
                region.check_invariants()
            except AssertionError as exc:
                self._violate("log-space", f"{region.name}: {exc}")

    def _check_power_legality(self, disks) -> None:
        for disk in disks:
            if (
                disk._in_service is not None
                and disk.power._state is not _ACTIVE
            ):
                self._violate(
                    "power-legality",
                    f"{disk.name} has an op in service while "
                    f"{disk.state.value} (service requires ACTIVE)",
                )

    def _check_rotation(self) -> None:
        controller = self.controller
        on_duty = getattr(controller, "_on_duty", None)
        if isinstance(on_duty, list):
            # RotatedLoggingController (RoLo-P / RoLo-R): §III-C duty set.
            active = not controller._deactivated and not controller._draining
            if active:
                expected = controller.config.n_on_duty
                if len(on_duty) != expected or len(set(on_duty)) != len(
                    on_duty
                ):
                    self._violate(
                        "rotation-legality",
                        f"on-duty set {on_duty} is not {expected} "
                        "distinct loggers",
                    )
                for index in on_duty:
                    if controller.mirrors[index].failed:
                        self._violate(
                            "rotation-legality",
                            f"failed mirror M{index} still holds the "
                            "duty token",
                        )
        elif isinstance(on_duty, int):
            # RoLo-5: a single rotating on-duty log region index.
            if not 0 <= on_duty < controller.config.n_disks:
                self._violate(
                    "rotation-legality",
                    f"on-duty log index {on_duty} out of range",
                )
        duty_pair = getattr(controller, "_duty_pair", None)
        if isinstance(duty_pair, int):
            # RoLo-E: exactly one duty pair, always a valid pair index.
            if not 0 <= duty_pair < controller.config.n_pairs:
                self._violate(
                    "rotation-legality",
                    f"duty pair {duty_pair} out of range",
                )

    def _check_destage_progress(self, disks) -> None:
        controller = self.controller
        failed = sum(1 for d in disks if d.power._state is _FAILED)
        if failed != self._failed_count:
            # Failures abort destage processes and legally re-dirty their
            # unfinished units; restart the monotonicity baseline.
            self._failed_count = failed
            self._drain_floor = None
        if not getattr(controller, "_draining", False):
            self._drain_floor = None
            return
        dirty = controller.dirty_units_total()
        config = controller.config
        slack = getattr(
            config, "n_pairs", getattr(config, "n_disks", 1)
        )
        if self._drain_floor is not None and dirty > (
            self._drain_floor + slack
        ):
            self._violate(
                "destage-progress",
                f"dirty backlog grew to {dirty} during drain "
                f"(floor {self._drain_floor}, slack {slack})",
            )
        if self._drain_floor is None or dirty < self._drain_floor:
            self._drain_floor = dirty

    def _check_energy(self, disks) -> None:
        # Controller.total_energy_now over this sweep's disk list.
        now = self.sim._now
        energy = sum(d.power.energy_at(now) for d in disks)
        if energy < self._last_energy - 1e-9:
            self._violate(
                "energy-monotonicity",
                f"cumulative energy fell from {self._last_energy:.6f} J "
                f"to {energy:.6f} J",
            )
        self._last_energy = energy


__all__ = ["InvariantChecker"]
