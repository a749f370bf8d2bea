"""Fixed-cadence time-series sampling of a live simulation.

A :class:`TimeSeriesSampler` schedules itself on the simulator at a fixed
virtual-time interval and records queue depth, per-role instantaneous
power draw, and log-space occupancy — the raw material for plotting the
idle-slot structure of Fig. 3 and the sawtooth occupancy of Fig. 2.

Sampling is read-only: callbacks never mutate controller or disk state,
so a sampled run's metrics are identical to an unsampled one.  The
sampler re-arms itself only while the simulation still has foreign events
pending, so it never keeps ``Simulator.run`` alive on its own.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import TYPE_CHECKING, Any, Dict, List

from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.core.base import Controller


@dataclasses.dataclass
class Sample:
    """One instant's observation of the array."""

    ts: float
    #: Queued (not yet in service) operations across all disks.
    queue_depth: int
    #: Operations currently in service across all disks.
    in_service: int
    #: Disks currently spun up (ACTIVE or IDLE).
    spun_up: int
    #: Instantaneous power draw by disk role (watts).
    power_w: Dict[str, float]
    #: Mean and max log-region occupancy across the scheme's regions
    #: (both 0.0 for schemes without logging space).
    log_occupancy_mean: float
    log_occupancy_max: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ts": self.ts,
            "queue_depth": self.queue_depth,
            "in_service": self.in_service,
            "spun_up": self.spun_up,
            "power_w": dict(self.power_w),
            "log_occupancy_mean": self.log_occupancy_mean,
            "log_occupancy_max": self.log_occupancy_max,
        }


class TimeSeriesSampler:
    """Run probe sampling a controller at a fixed virtual-time cadence."""

    def __init__(self, interval: float) -> None:
        if not 0 < interval < math.inf:
            raise ValueError(
                "sample interval must be positive and finite, "
                f"got {interval!r}"
            )
        self.interval = interval
        self.samples: List[Sample] = []

    def install(self, sim: Simulator, controller: "Controller") -> None:
        """Begin sampling ``controller`` at the current instant."""
        self.sim = sim
        self.controller = controller
        sim.schedule(0.0, self._tick)

    def uninstall(self) -> None:
        """Nothing to detach: the tick chain ends with the run."""

    def _tick(self) -> None:
        self.sim.fired["sampler"] += 1
        if self.sim.peek() is None:
            # This tick is the last event in the queue: the run is over,
            # so record nothing and let the queue drain.  (The clock still
            # lands on this tick's time — at most one interval past the
            # last foreign event — which is why metric windows close at
            # trace completion, not at queue exhaustion.)
            return
        self.samples.append(self.observe())
        self.sim.schedule(self.interval, self._tick)

    def observe(self) -> Sample:
        """Take one sample right now (also usable without scheduling)."""
        controller = self.controller
        now = self.sim.now
        queue_depth = 0
        in_service = 0
        spun_up = 0
        power_w: Dict[str, float] = {}
        for role, disks in controller.disks_by_role().items():
            watts = 0.0
            for disk in disks:
                queue_depth += disk.queue_depth
                in_service += 1 if disk.busy else 0
                spun_up += 1 if disk.state.spun_up else 0
                watts += disk.power.draw(disk.state)
            power_w[role] = watts
        occupancies = [
            region.occupancy for region in controller.log_regions()
        ]
        return Sample(
            ts=now,
            queue_depth=queue_depth,
            in_service=in_service,
            spun_up=spun_up,
            power_w=power_w,
            log_occupancy_mean=(
                sum(occupancies) / len(occupancies) if occupancies else 0.0
            ),
            log_occupancy_max=max(occupancies, default=0.0),
        )

    # ------------------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Write samples as JSON Lines; returns the number written."""
        _ensure_parent(path)
        with open(path, "w") as fh:
            for sample in self.samples:
                fh.write(json.dumps(sample.to_dict(), sort_keys=True))
                fh.write("\n")
        return len(self.samples)

    def to_csv(self, path: str) -> int:
        """Write samples as CSV (power columns per role, sorted)."""
        roles = sorted(
            {role for s in self.samples for role in s.power_w}
        )
        header = (
            ["ts", "queue_depth", "in_service", "spun_up"]
            + [f"power_w_{role}" for role in roles]
            + ["log_occupancy_mean", "log_occupancy_max"]
        )
        _ensure_parent(path)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for s in self.samples:
                row = [
                    repr(s.ts),
                    str(s.queue_depth),
                    str(s.in_service),
                    str(s.spun_up),
                ]
                row += [repr(s.power_w.get(role, 0.0)) for role in roles]
                row += [
                    repr(s.log_occupancy_mean),
                    repr(s.log_occupancy_max),
                ]
                fh.write(",".join(row) + "\n")
        return len(self.samples)

    def summary(self) -> str:
        """One-line digest for CLI output."""
        if not self.samples:
            return "samples: none collected"
        depth_peak = max(s.queue_depth for s in self.samples)
        occ_peak = max(s.log_occupancy_max for s in self.samples)
        watts = [sum(s.power_w.values()) for s in self.samples]
        return (
            f"samples: {len(self.samples)} @ {self.interval}s  "
            f"peak_queue={depth_peak}  "
            f"mean_power={sum(watts) / len(watts):.1f}W  "
            f"peak_log_occupancy={occ_peak:.2%}"
        )


def _ensure_parent(path: str) -> None:
    """Create the exporter target's parent directories (like the trace
    exporters' snapshot paths, deep output locations just work)."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
