"""Fault-injection campaigns: scheme x workload x fault-time grids.

A campaign is a grid of :class:`FaultCell`\\ s — one faulted simulation
each — executed with the same two-layer caching (in-process memo +
persistent :class:`~repro.experiments.cache.ResultCache`) and process-pool
fan-out as the main experiment matrix, including its shared-memory trace
store: a campaign sweeping five schemes × five fault times over one
workload publishes that workload's trace to shared memory once and fans
out fifty :class:`~repro.traces.shm.TraceRef`-carrying cells.  Results
are :class:`~repro.faults.injector.FaultRunResult` payloads; workers ship
them back as plain dicts, so parallel campaigns are bit-for-bit identical
to serial ones.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments import runner
from repro.experiments.cache import active_cache
from repro.faults.injector import FaultRunResult, run_faulted
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import MetricsRegistry
from repro.traces import shm
from repro.traces.compiled import AnyTrace

#: In-process memo of completed fault cells (spec-keyed payload dicts).
_MEMO: Dict[Tuple, Dict[str, Any]] = {}


def clear_memo() -> None:
    _MEMO.clear()


@dataclasses.dataclass(frozen=True, eq=False)
class FaultCell:
    """One faulted simulation: a base workload cell plus a fault schedule.

    ``base`` supplies the trace and array configuration exactly as the
    fault-free experiments build them, so a fault-free control run of the
    same cell hits the main result cache.
    """

    base: runner.Cell
    schedule_spec: str

    def key(self) -> Tuple:
        return ("fault", self.base.key(), self.schedule_spec)

    def label(self) -> str:
        return f"{self.base.label()} + [{self.schedule_spec}]"

    def trace_key(self) -> Tuple:
        """Trace identity (faults never perturb the arrival stream)."""
        return self.base.trace_key()

    def build_trace(self) -> AnyTrace:
        return self.base.build_trace()

    def execute(
        self, trace: Optional[AnyTrace] = None, registry=None
    ) -> FaultRunResult:
        """Run the faulted simulation, bypassing every cache layer.

        ``trace`` substitutes a shared-memory attachment for the freshly
        generated trace (identical records either way).  A metrics
        ``registry`` meters the run; metering observes only, so the
        result is byte-identical either way.
        """
        if trace is None:
            trace = self.base.build_trace()
        config = self.base.resolve_config()
        schedule = FaultSchedule.parse(self.schedule_spec)
        return run_faulted(
            self.base.scheme, config, trace, schedule, registry=registry
        )

    def execute_metered(
        self, trace: Optional[AnyTrace] = None, registry=None
    ) -> Tuple[FaultRunResult, Any]:
        """:meth:`execute` into ``registry`` (created if omitted);
        returns ``(result, registry)``."""
        if registry is None:
            registry = MetricsRegistry()
        return self.execute(trace, registry), registry


def fault_cell(
    scheme: str,
    workload: str,
    schedule: FaultSchedule,
    scale: Optional[float] = None,
    n_pairs: int = 4,
    seed: int = 42,
    **config_overrides,
) -> FaultCell:
    return FaultCell(
        base=runner.workload_cell(
            scheme,
            workload,
            scale=scale,
            n_pairs=n_pairs,
            seed=seed,
            **config_overrides,
        ),
        schedule_spec=schedule.spec(),
    )


def build_campaign(
    schemes: Iterable[str],
    workloads: Iterable[str],
    fault_times: Iterable[float],
    disks: Iterable[str] = ("P0", "M0"),
    rebuild: bool = True,
    **cell_kwargs,
) -> List[FaultCell]:
    """The full grid: one single-failure cell per combination."""
    cells = []
    for scheme in schemes:
        for workload in workloads:
            for time in fault_times:
                for disk in disks:
                    schedule = FaultSchedule.single_failure(
                        disk, time, rebuild=rebuild
                    )
                    cells.append(
                        fault_cell(scheme, workload, schedule, **cell_kwargs)
                    )
    return cells


# ----------------------------------------------------------------------
# Cached + parallel execution
# ----------------------------------------------------------------------
def _lookup(key: Tuple) -> Optional[Dict[str, Any]]:
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    disk = active_cache()
    if disk is not None:
        payload = disk.get_payload(key)
        if payload is not None:
            _MEMO[key] = payload
            return payload
    return None


def _install(key: Tuple, payload: Dict[str, Any]) -> None:
    _MEMO[key] = payload
    disk = active_cache()
    if disk is not None:
        disk.put_payload(key, payload)


def _compute_fault_cell(
    cell: FaultCell, ref=None, metered: bool = False
) -> Dict[str, Any]:
    """Worker entry point: run one cell, ship its result dict back (plus
    its ``registry`` when ``metered``, bound with ``functools.partial``)."""
    trace = shm.attach_cached(ref) if ref is not None else None
    registry = MetricsRegistry() if metered else None
    payload = {"result": cell.execute(trace, registry).to_dict()}
    if metered:
        payload["registry"] = registry.to_dict()
    return payload


def run_campaign(
    cells: Iterable[FaultCell],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    collect_metrics: bool = False,
    registry=None,
) -> List[FaultRunResult]:
    """Execute (or fetch) every cell; returns results in input order.

    ``progress`` may be a plain ``callable(str)`` or a
    :class:`~repro.experiments.parallel.SweepProgress` (throttled
    single-line rendering with ETA).  With ``collect_metrics=True``
    computed cells run instrumented and worker registries merge into
    ``registry`` (created if omitted) along with dispatcher telemetry;
    the cached payloads stay byte-identical either way.  Metering only
    covers cells computed in this call — cached cells contribute nothing.
    """
    from repro.experiments.parallel import SweepProgress

    if not collect_metrics:
        registry = None
    elif registry is None:
        registry = MetricsRegistry()

    cell_list = list(cells)
    unique: Dict[Tuple, FaultCell] = {}
    for cell in cell_list:
        unique.setdefault(cell.key(), cell)

    pending = [
        (key, cell)
        for key, cell in unique.items()
        if _lookup(key) is None
    ]
    done = len(unique) - len(pending)
    if isinstance(progress, SweepProgress):
        progress.start(len(unique), done=done)

    def _note(cell: FaultCell) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            if isinstance(progress, SweepProgress):
                progress(cell.label())
            else:
                progress(f"[{done}/{len(unique)}] {cell.label()}")

    if pending and jobs > 1:
        from repro.experiments.parallel import run_grouped

        def _handle(key: Tuple, cell: FaultCell, payload: Dict[str, Any]):
            _install(key, payload["result"])
            if registry is not None:
                registry.merge(MetricsRegistry.from_dict(payload["registry"]))
            _note(cell)

        worker = functools.partial(
            _compute_fault_cell, metered=registry is not None
        )
        run_grouped(pending, jobs, worker, _handle, telemetry=registry)
    else:
        for key, cell in pending:
            _install(key, cell.execute(registry=registry).to_dict())
            _note(cell)

    if isinstance(progress, SweepProgress):
        progress.finish()
    return [
        FaultRunResult.from_dict(_lookup(cell.key()))
        for cell in cell_list
    ]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def campaign_summary(
    cells: List[FaultCell], results: List[FaultRunResult]
) -> Dict[str, Any]:
    """Golden-file-friendly projection of a campaign's outcome.

    Continuous quantities are rounded so the summary is stable across
    platforms; counts and verdicts are exact.
    """
    rows = []
    for cell, result in zip(cells, results):
        rebuild_time = (
            round(result.rebuilds[0]["rebuild_time"], 3)
            if result.rebuilds
            else None
        )
        rows.append(
            {
                "scheme": result.scheme,
                "workload": cell.base.workload
                or getattr(cell.base.trace_config, "name", "?"),
                "schedule": result.schedule,
                "requests": result.metrics.requests,
                "lost_blocks": result.lost_blocks_total,
                "consistent": result.consistent,
                "checks": len(result.checks),
                "rebuild_time_s": rebuild_time,
            }
        )
    return {
        "cells": len(rows),
        "inconsistent_cells": sum(1 for r in rows if not r["consistent"]),
        "rows": rows,
    }
