"""Drives a :class:`FaultSchedule` through a live simulation.

The injector is a run probe: installed into
:func:`~repro.core.base.run_trace`, it schedules each fault event on the
simulator clock before the first arrival, and on uninstall it runs the
closing ``end`` oracle sweep.  Disk failures honor the
fail-stop-between-operations model: if the victim is mid-operation at
the scheduled instant, the injector polls until the disk is quiet and
fails it then (the event log records both the scheduled and the
effective time).  After a failure it runs an oracle sweep, optionally
starts an online rebuild, and sweeps again once the replacement is
swapped in.

Slowdown windows set/restore ``Disk.slowdown_factor``; latent sector
errors are planted with ``Disk.inject_latent_error`` and, when a later
read surfaces them, repaired by a background re-write of the damaged
range (the scrub path), all visible in the event log.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.core import build_controller, run_trace
from repro.core.base import Controller
from repro.core.metrics import RunMetrics
from repro.disk.disk import Disk, DiskOp, OpKind, Priority
from repro.faults.oracle import ConsistencyOracle, OracleCheck
from repro.faults.schedule import (
    DiskFailure,
    FaultSchedule,
    FaultScheduleError,
    LatentSectorError,
    Slowdown,
)
from repro.obs.metrics import RunInstrumentation
from repro.sim.engine import Simulator

#: Poll period (virtual seconds) while a failing disk finishes in-flight
#: work (fail-stop between operations).
_QUIET_POLL_S = 0.005


class FaultInjector:
    """Applies a schedule's events to one controller's disks."""

    def __init__(
        self,
        schedule: FaultSchedule,
        oracle: ConsistencyOracle,
    ) -> None:
        self.schedule = schedule
        self.oracle = oracle
        self.sim: Optional[Simulator] = None
        self.controller: Optional[Controller] = None
        #: Chronological log of everything the injector did.
        self.events: List[Dict[str, Any]] = []
        self.rebuilds: List[Dict[str, Any]] = []
        self.checks: List[OracleCheck] = []

    def install(self, sim: Simulator, controller: Controller) -> None:
        """Schedule every fault event; call once, before the run."""
        if self.sim is not None:
            raise RuntimeError("injector already installed")
        self.sim = sim
        self.controller = controller
        for event in self.schedule.events:
            if isinstance(event, DiskFailure):
                sim.at(event.time, self._fail, event)
            elif isinstance(event, Slowdown):
                sim.at(event.time, self._slow_start, event)
            elif isinstance(event, LatentSectorError):
                sim.at(event.time, self._plant_lse, event)
            else:  # pragma: no cover - schedule types are closed
                raise FaultScheduleError(f"unknown event {event!r}")

    def uninstall(self) -> None:
        """Run the closing ``end`` oracle sweep."""
        self._check("end")

    # ------------------------------------------------------------------
    def _find_disk(self, name: str) -> Disk:
        for disk in self.controller.all_disks():
            if disk.name == name:
                return disk
        raise FaultScheduleError(
            f"{name!r} is not a member disk of "
            f"{self.controller.scheme_name}"
        )

    def _check(self, event: str) -> None:
        self.checks.append(self.oracle.check(event))

    # ------------------------------------------------------------------
    # Disk failure + rebuild
    # ------------------------------------------------------------------
    def _fail(self, event: DiskFailure) -> None:
        self.sim.fired["fault:fail"] += 1
        disk = self._find_disk(event.disk)

        def quiet() -> bool:
            return not disk.busy and disk.queue_depth == 0

        def act() -> None:
            self.controller.fail_disk(disk)
            self.events.append(
                {
                    "kind": "disk-failure",
                    "disk": event.disk,
                    "scheduled_t": event.time,
                    "t": self.sim.now,
                }
            )
            self._check(f"at-fault:{event.disk}")
            if event.rebuild:
                started = self.sim.now
                self.controller.begin_rebuild(
                    disk,
                    on_complete=lambda: self._rebuilt(event, started),
                )

        if quiet():
            act()
        else:
            # Fail-stop between operations: wait for the in-flight work to
            # complete, then fail the disk.
            self.sim.poll(_QUIET_POLL_S, quiet, act, label="fault:wait-quiet")

    def _rebuilt(self, event: DiskFailure, started: float) -> None:
        self.rebuilds.append(
            {
                "disk": event.disk,
                "started": started,
                "finished": self.sim.now,
                "rebuild_time": self.sim.now - started,
            }
        )
        self._check(f"post-rebuild:{event.disk}")

    # ------------------------------------------------------------------
    # Transient slowdowns
    # ------------------------------------------------------------------
    def _slow_start(self, event: Slowdown) -> None:
        self.sim.fired["fault:slow"] += 1
        disk = self._find_disk(event.disk)
        disk.slowdown_factor = event.factor
        self.events.append(
            {
                "kind": "slowdown-start",
                "disk": event.disk,
                "t": self.sim.now,
                "factor": event.factor,
            }
        )
        self.sim.schedule(event.duration, self._slow_end, event, disk)

    def _slow_end(self, event: Slowdown, disk: Disk) -> None:
        # Restore on the original object: correct even if the disk failed
        # or was replaced meanwhile (then it is simply inert).
        self.sim.fired["fault:slow-end"] += 1
        disk.slowdown_factor = 1.0
        self.events.append(
            {"kind": "slowdown-end", "disk": event.disk, "t": self.sim.now}
        )

    # ------------------------------------------------------------------
    # Latent sector errors
    # ------------------------------------------------------------------
    def _plant_lse(self, event: LatentSectorError) -> None:
        self.sim.fired["fault:lse"] += 1
        disk = self._find_disk(event.disk)
        if disk.failed:
            self.events.append(
                {
                    "kind": "lse-skipped",
                    "disk": event.disk,
                    "t": self.sim.now,
                }
            )
            return
        disk.on_media_error = self._media_error
        disk.inject_latent_error(event.sector, event.n_sectors)
        self.events.append(
            {
                "kind": "lse-planted",
                "disk": event.disk,
                "t": self.sim.now,
                "sector": event.sector,
                "n_sectors": event.n_sectors,
            }
        )

    def _media_error(self, disk: Disk, sector: int, n_sectors: int) -> None:
        self.events.append(
            {
                "kind": "media-error",
                "disk": disk.name,
                "t": self.sim.now,
                "sector": sector,
                "n_sectors": n_sectors,
            }
        )
        if self.controller.tracer is not None:
            self.controller.tracer.fault(
                "media-error",
                self.controller.scheme_name,
                self.sim.now,
                disk=disk.name,
                sector=sector,
            )
        # Scrub repair: re-write the damaged range from the mirrored copy.
        self.sim.schedule(0.0, self._scrub, disk, sector, n_sectors)

    def _scrub(self, disk: Disk, sector: int, n_sectors: int) -> None:
        self.sim.fired["fault:scrub"] += 1
        if disk.failed:
            return
        disk.submit(
            DiskOp(
                OpKind.WRITE,
                sector,
                n_sectors * 512,
                priority=Priority.BACKGROUND,
            )
        )
        self.events.append(
            {
                "kind": "scrub-repair",
                "disk": disk.name,
                "t": self.sim.now,
                "sector": sector,
                "n_sectors": n_sectors,
            }
        )


# ----------------------------------------------------------------------
# One-shot faulted run
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FaultRunResult:
    """Everything one faulted run produced, JSON round-trippable."""

    scheme: str
    schedule: str
    metrics: RunMetrics
    events: List[Dict[str, Any]]
    rebuilds: List[Dict[str, Any]]
    checks: List[OracleCheck]
    #: Full :meth:`ConsistencyOracle.to_dict` snapshot (clauses + checks);
    #: ``None`` only for payloads from before every run had an oracle.
    #: The snapshot is the canonical serialization of the checks —
    #: ``to_dict`` emits the bare ``checks`` list only for those.
    oracle: Optional[Dict[str, Any]] = None

    @property
    def lost_blocks_total(self) -> int:
        return sum(len(check.lost) for check in self.checks)

    @property
    def consistent(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "scheme": self.scheme,
            "schedule": self.schedule,
            "metrics": self.metrics.to_dict(),
            "events": self.events,
            "rebuilds": self.rebuilds,
        }
        if self.oracle is not None:
            data["oracle"] = self.oracle
        else:
            data["checks"] = [check.to_dict() for check in self.checks]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRunResult":
        oracle = data.get("oracle")
        if oracle is not None:
            checks_data = oracle["checks"]
        else:
            checks_data = data.get("checks", [])
        return cls(
            scheme=data["scheme"],
            schedule=data["schedule"],
            metrics=RunMetrics.from_dict(data["metrics"]),
            events=data["events"],
            rebuilds=data["rebuilds"],
            checks=[OracleCheck.from_dict(c) for c in checks_data],
            oracle=oracle,
        )


def run_faulted(
    scheme: str,
    config,
    trace,
    schedule: FaultSchedule,
    tracer=None,
    registry=None,
    oracle: Optional[ConsistencyOracle] = None,
    checker=None,
) -> FaultRunResult:
    """Replay ``trace`` under ``schedule`` and report the fault outcome.

    The simulation is drained to completion, so any rebuild started by the
    schedule has finished (and been oracle-checked) by the time this
    returns.  A final ``end`` sweep covers schedules without rebuilds.

    The injector, the metrics ``registry`` (when given) and the
    invariant ``checker`` (when given) are run probes, installed in that
    order and uninstalled in reverse: the checker's final sweep, then the
    metrics harvest, then the ``end`` oracle sweep.  Like the tracer,
    each observes only, so the metrics are byte-identical whichever are
    attached.  A caller-supplied ``oracle`` (e.g. the verification
    harness's :class:`~repro.verify.ReferenceModel`) replaces the
    internal :class:`ConsistencyOracle`.  The parity schemes (``raid5``,
    ``rolo-5``) have no degraded mode: their ``fail_disk`` raises
    ``NotImplementedError`` before any disk fails, so their schedules
    must contain only slowdown/LSE events.
    """
    sim = Simulator()
    if oracle is None:
        oracle = ConsistencyOracle()
    controller = build_controller(
        scheme, sim, config, tracer=tracer, oracle=oracle
    )
    injector = FaultInjector(schedule, oracle)
    probes: List[Any] = [injector]
    if registry is not None:
        probes.append(RunInstrumentation(registry))
    if checker is not None:
        probes.append(checker)
    metrics = run_trace(controller, trace, probes=probes)
    return FaultRunResult(
        scheme=scheme,
        schedule=schedule.spec(),
        metrics=metrics,
        events=injector.events,
        rebuilds=injector.rebuilds,
        checks=injector.checks,
        oracle=oracle.to_dict(),
    )
