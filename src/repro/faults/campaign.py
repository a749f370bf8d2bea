"""Fault-injection campaigns: scheme x workload x fault-time grids.

A campaign is a grid of :class:`FaultCell`\\ s — one faulted simulation
each — executed by the experiment matrix's own sweep,
:func:`~repro.experiments.parallel.execute_cells`: the same two-layer
caching (in-process memo + persistent
:class:`~repro.experiments.cache.ResultCache`) and process-pool fan-out,
including its shared-memory trace store.  A campaign sweeping five
schemes × five fault times over one workload publishes that workload's
trace to shared memory once and fans out fifty
:class:`~repro.traces.shm.TraceRef`-carrying cells.  Results are
:class:`~repro.faults.injector.FaultRunResult` payloads; workers ship
them back as plain dicts, so parallel campaigns are bit-for-bit
identical to serial ones.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any, Callable, ClassVar, Dict, Iterable, List, Optional, Tuple,
)

from repro.experiments import runner
from repro.faults.injector import FaultRunResult, run_faulted
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import MetricsRegistry
from repro.traces.compiled import CompiledTrace


@dataclasses.dataclass(frozen=True, eq=False)
class FaultCell:
    """One faulted simulation: a base workload cell plus a fault schedule.

    ``base`` supplies the trace and array configuration exactly as the
    fault-free experiments build them, so a fault-free control run of the
    same cell hits the main result cache.
    """

    base: runner.Cell
    schedule_spec: str

    result_type: ClassVar[type] = FaultRunResult

    def key(self) -> Tuple:
        return ("fault", self.base.key(), self.schedule_spec)

    def label(self) -> str:
        return f"{self.base.label()} + [{self.schedule_spec}]"

    def trace_key(self) -> Tuple:
        """Trace identity (faults never perturb the arrival stream)."""
        return self.base.trace_key()

    def build_trace(self) -> CompiledTrace:
        return self.base.build_trace()

    def execute(
        self, trace: Optional[CompiledTrace] = None, registry=None
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

    def compute(
        self, trace: Optional[CompiledTrace] = None, registry=None
    ) -> Dict[str, Any]:
        """Run uncached; return ``{"result": FaultRunResult.to_dict()}``."""
        return {"result": self.execute(trace, registry).to_dict()}


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
def run_campaign(
    cells: Iterable[FaultCell],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[FaultRunResult]:
    """Execute (or fetch) every cell; returns results in input order.

    ``progress`` may be a plain ``callable(str)`` or a
    :class:`~repro.experiments.parallel.SweepProgress` (throttled
    single-line rendering with ETA).  A ``registry`` meters the computed
    cells and the pool dispatch (see
    :func:`~repro.experiments.parallel.execute_cells`); the results stay
    byte-identical either way.
    """
    from repro.experiments.parallel import execute_cells

    return execute_cells(
        cells, jobs=jobs, progress=progress, registry=registry
    ).results


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
