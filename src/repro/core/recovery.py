"""Disk failure recovery (paper §III-C, §III-D).

When a disk fails, only the disks essential for data recovery are spun up:

* **RAID10** — the pair partner holds everything; it is already spinning.
* **GRAID** — a primary's fresh data is split between its (stale) mirror
  and the centralized log disk; per the paper, recovering any primary
  requires spinning up *all* the mirrored disks (the pending centralized
  destage must complete to make the mirror consistent first).
* **RoLo-P** — a failed on-duty logger is replaced by the next mirror
  immediately (logging service continuity, §III-D) and its primary is
  already ACTIVE; a failed *primary* "silently" wakes its mirror plus the
  few mirrors whose log regions still hold live second copies of its
  recent writes.
* **RoLo-R** — like RoLo-P, but the third copy on the on-duty *primary*
  (always spinning) means recovery rarely needs extra spin-ups.
* **RoLo-E** — only the failed disk's partner is woken.

:func:`plan_recovery` computes the wake set and rebuild volume for any
(controller, disk) pair; :class:`RecoveryProcess` executes the rebuild as
background copy I/O onto a fresh replacement drive and reports the rebuild
time — the ingredient behind the MTTR axis of Fig. 9.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from repro.core.base import Controller
from repro.core.destage import DestageProcess, split_runs
from repro.disk.disk import Disk
from repro.sim.engine import Simulator


class RecoveryError(ValueError):
    """Raised for invalid recovery requests (unknown disk, etc.)."""


@dataclasses.dataclass
class RecoveryPlan:
    """What recovering one failed disk requires."""

    scheme: str
    failed_disk: str
    role: str  # 'primary' | 'mirror' | 'log'
    #: Disk whose surviving copy seeds the rebuild.
    source: Disk
    #: Disks that must be spun up (beyond those already spinning).
    wake: List[Disk]
    #: Bytes to copy onto the replacement drive.
    rebuild_bytes: int
    #: RoLo only: logger rotated to keep the logging service running.
    logging_continues: bool = True

    @property
    def disks_woken(self) -> int:
        return len(self.wake)


def _find(controller: Controller, disk: Disk) -> Tuple[str, int]:
    roles = controller.disks_by_role()
    for role, disks in roles.items():
        for index, candidate in enumerate(disks):
            if candidate is disk:
                return role, index
    raise RecoveryError(f"{disk.name} is not part of {controller.scheme_name}")


def plan_recovery(controller: Controller, failed: Disk) -> RecoveryPlan:
    """Compute the paper's §III-C wake set for a failure of ``failed``."""
    role, index = _find(controller, failed)
    scheme = controller.scheme_name
    rebuild = controller.config.data_capacity_bytes
    primaries = getattr(controller, "primaries", [])
    mirrors = getattr(controller, "mirrors", [])

    def sleeping(disks: List[Disk]) -> List[Disk]:
        return [
            d
            for d in disks
            if not d.state.spun_up and not d.failed and d is not failed
        ]

    if scheme == "RAID10":
        partner = mirrors[index] if role == "primary" else primaries[index]
        return RecoveryPlan(scheme, failed.name, role, partner, [], rebuild)

    if scheme == "GRAID":
        if role == "log":
            # Re-log the dirty second copies from the (awake) primaries.
            dirty_units = controller.dirty_units_total()
            return RecoveryPlan(
                scheme,
                failed.name,
                role,
                primaries[0],
                [],
                dirty_units * controller.config.stripe_unit,
            )
        if role == "primary":
            # Paper: ALL mirrors must come up (the centralized destage has
            # to complete before the stale mirror can seed the rebuild).
            return RecoveryPlan(
                scheme,
                failed.name,
                role,
                mirrors[index],
                sleeping(mirrors),
                rebuild,
            )
        # Mirror failure: primary (awake) has everything.
        return RecoveryPlan(
            scheme, failed.name, role, primaries[index], [], rebuild
        )

    if scheme in ("RoLo-P", "RoLo-R"):
        if role == "primary":
            # Wake the pair's mirror plus every mirror still holding live
            # log copies of this pair's recent writes.
            holders = [
                mirrors[i]
                for i, region in enumerate(controller.mirror_logs)
                if region.live_bytes(index) > 0
            ]
            if scheme == "RoLo-R":
                # The third copies live on always-on primaries: the stale
                # log-holding mirrors are not needed.
                holders = []
            wake = sleeping(
                [mirrors[index]] + [h for h in holders if h is not mirrors[index]]
            )
            return RecoveryPlan(
                scheme, failed.name, role, mirrors[index], wake, rebuild
            )
        # Mirror failure.  If it was on duty, rotate the logging service to
        # the next candidate so logging never stops (§III-D).  The hand-off
        # is idempotent, so when the failure arrived through
        # ``Controller.fail_disk`` (which already rotated) this is a no-op.
        continues = controller._handoff_duty(index)
        return RecoveryPlan(
            scheme,
            failed.name,
            role,
            primaries[index],
            [],
            rebuild,
            logging_continues=continues,
        )

    if scheme == "RoLo-E":
        partner = mirrors[index] if role == "primary" else primaries[index]
        return RecoveryPlan(
            scheme,
            failed.name,
            role,
            partner,
            sleeping([partner]),
            rebuild,
        )

    raise RecoveryError(f"no recovery model for scheme {scheme!r}")


class RecoveryProcess:
    """Rebuilds a replacement drive from a plan's source disk.

    The rebuild streams ``rebuild_bytes`` in large background batches from
    the surviving source onto a freshly spun-up replacement; foreground
    user I/O on the source always takes precedence.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: Controller,
        plan: RecoveryPlan,
        batch_bytes: int = 4 * 1024 * 1024,
        on_complete: Optional[Callable[["RecoveryProcess"], None]] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.on_complete = on_complete
        self.started_at = sim.now
        self.finished_at: float = -1.0
        for disk in plan.wake:
            disk.request_spin_up()
        self.replacement = controller._make_disk(f"{plan.failed_disk}-new")
        unit = controller.config.stripe_unit
        # One sequential run from offset 0: set-up costs O(batches), not
        # O(stripe units).
        run = max(1, plan.rebuild_bytes // unit) * unit
        self._process = DestageProcess(
            sim,
            name=f"rebuild-{plan.failed_disk}",
            source=plan.source,
            targets=[self.replacement],
            batches=split_runs([(0, run)], unit, batch_bytes),
            unit_size=unit,
            idle_gated=False,
            idle_grace_s=0.0,
            on_complete=self._done,
        )

    @property
    def done(self) -> bool:
        return self.finished_at >= 0

    @property
    def rebuild_time(self) -> float:
        if not self.done:
            raise RecoveryError("rebuild still in progress")
        return self.finished_at - self.started_at

    def start(self) -> None:
        self._process.start()

    def abort(self) -> None:
        """Stop copying, never to complete: the source has failed."""
        self._process.abort()

    def _done(self, process: DestageProcess) -> None:
        self.finished_at = self.sim.now
        if self.on_complete is not None:
            self.on_complete(self)
