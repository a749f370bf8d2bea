"""Shared simulation driver for the experiments, with result caching.

Several paper artifacts are different projections of the same runs
(Fig. 10, Tables I/IV/V all come from the main five-scheme comparison), so
completed runs are memoized on their full parameter tuple.

The unit of work is a :class:`Cell`: one (scheme, trace, array-config)
simulation, identified by a canonical key (see
:func:`repro.experiments.cache.freeze`).  Cells are picklable, so the
parallel executor in :mod:`repro.experiments.parallel` can fan them out
over worker processes; results land in two layers:

* an in-process memo (``_CACHE``) — free within one interpreter, and
* an optional persistent :class:`~repro.experiments.cache.ResultCache`
  (enabled by the CLI by default) — free across invocations.

The same two layers serve every cell kind (fault-campaign and
verification cells too): a cell names its ``result_type`` and its keys
never collide with another kind's.

``simulate_workload`` / ``simulate_synthetic`` keep their original
signatures; every caller transparently benefits from both layers.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple

from repro.core import (
    ArrayConfig,
    Raid5Config,
    build_controller,
    default_config,
    run_trace,
)
from repro.core.metrics import RunMetrics
from repro.experiments.cache import active_cache, freeze
from repro.obs.metrics import MetricsRegistry, RunInstrumentation
from repro.obs.profiler import CellProfile
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.spans import SpanRecorder
from repro.obs.tracer import RecordingTracer
from repro.sim import Simulator
from repro.traces import build_workload_trace
from repro.traces.compiled import CompiledTrace
from repro.traces.synthetic import SyntheticTraceConfig, generate_compiled

#: Default trace time-scales for the named workloads (chosen so main
#: experiments finish in seconds while preserving cycle counts; see
#: DESIGN.md §3).  High-IOPS traces can afford larger scales.
DEFAULT_SCALES: Dict[str, float] = {
    "src2_2": 0.10,
    "proj_0": 0.03,
    "mds_0": 0.02,
    "wdev_0": 0.02,
    "web_1": 0.05,
    "rsrch_2": 0.05,
    "hm_1": 0.05,
}

#: The one in-process memo: cell key -> result, for every cell kind.
_CACHE: Dict[Tuple, Any] = {}

#: In-process accounting of where results came from, reported by the CLI
#: (``computed`` counts actual simulations executed in this process).
_stats: Dict[str, int] = {"computed": 0, "memory_hits": 0, "disk_hits": 0}


def clear_cache() -> None:
    """Drop the in-memory memo (the persistent cache is untouched)."""
    _CACHE.clear()


def run_stats() -> Dict[str, int]:
    """Snapshot of the in-process computed/hit counters."""
    return dict(_stats)


def reset_run_stats() -> None:
    for key in _stats:
        _stats[key] = 0


def workload_scale(name: str, scale: Optional[float]) -> float:
    if scale is not None:
        return scale
    return DEFAULT_SCALES.get(name, 0.05)


# ----------------------------------------------------------------------
# Cells: picklable, canonically keyed units of simulation work
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, eq=False)
class Cell:
    """One simulation: a scheme replaying one trace on one array config.

    ``kind`` selects between a named paper workload (``"workload"``) and a
    synthetic trace configuration (``"synthetic"``).  ``scale`` is always
    the *effective* (resolved) time-scale.  Instances are picklable work
    units for :func:`repro.experiments.parallel.execute_cells`.
    """

    kind: str
    scheme: str
    workload: Optional[str] = None
    scale: Optional[float] = None
    n_pairs: int = 20
    seed: int = 42
    config: Optional[ArrayConfig] = None
    trace_config: Optional[SyntheticTraceConfig] = None
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    #: What :meth:`compute` serializes; a ``ClassVar``, so not a field.
    result_type: ClassVar[type] = RunMetrics

    def key(self) -> Tuple:
        """Canonical memo/persistent-cache key for this cell."""
        if self.kind == "synthetic":
            return (
                "synthetic",
                self.scheme,
                freeze(self.trace_config),
                freeze(self.config),
            )
        return (
            "workload",
            self.scheme,
            self.workload,
            self.scale,
            self.n_pairs,
            self.seed,
            freeze(self.config),
            freeze(self.config_overrides),
        )

    def label(self) -> str:
        """Human-readable cell description (profile tables, progress)."""
        if self.kind == "synthetic":
            name = getattr(self.trace_config, "name", "synthetic")
            return f"{self.scheme} x {name}"
        return (
            f"{self.scheme} x {self.workload} "
            f"scale={self.scale} seed={self.seed}"
        )

    def trace_key(self) -> Tuple:
        """Identity of this cell's *trace alone* (scheme-independent).

        Cells that share a trace_key replay bit-identical traces, so the
        parallel executor builds the trace once, publishes it to shared
        memory, and fans the cells out with a
        :class:`~repro.traces.shm.TraceRef` each.
        """
        if self.kind == "synthetic":
            return ("synthetic", freeze(self.trace_config))
        return ("workload", self.workload, self.scale, self.seed)

    def build_trace(self) -> CompiledTrace:
        """Generate this cell's trace."""
        if self.kind == "synthetic":
            assert self.trace_config is not None
            return generate_compiled(self.trace_config)
        return build_workload_trace(self.workload, self.scale, self.seed)

    def resolve_config(self) -> ArrayConfig | Raid5Config:
        """This cell's fully-resolved array configuration."""
        if self.kind == "synthetic":
            assert self.config is not None
            return self.config
        config = self.config
        if config is None:
            config = default_config(self.scheme, self.n_pairs, self.scale)
        if self.config_overrides:
            config = dataclasses.replace(
                config, **dict(self.config_overrides)
            )
        return config

    def execute(self, trace: Optional[CompiledTrace] = None) -> RunMetrics:
        """Run the simulation, bypassing every cache layer.

        ``trace`` lets the parallel executor substitute a shared-memory
        attachment for the freshly-generated trace; both carry identical
        records, so metrics are byte-identical either way.
        """
        return _run_cell(self, trace).metrics

    def compute(
        self,
        trace: Optional[CompiledTrace] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> Dict[str, Any]:
        """Run uncached; return the serialized result and run profile."""
        run = _run_cell(self, trace, probes=_meters(registry))
        return {
            "result": run.metrics.to_dict(),
            "profile": run.profile.to_dict(),
        }

    def execute_metered(
        self,
        trace: Optional[CompiledTrace] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> Tuple[RunMetrics, MetricsRegistry]:
        """Run uncached with the metrics registry instrumented in.

        Returns ``(metrics, registry)``; the registry accumulates, so one
        instance can meter many cells (or merge with worker registries).
        Instrumentation observes only — ``metrics`` is byte-identical to
        :meth:`execute` (pinned in tests/test_metrics_registry.py).
        """
        if registry is None:
            registry = MetricsRegistry()
        run = _run_cell(self, trace, probes=_meters(registry))
        return run.metrics, registry


def workload_cell(
    scheme: str,
    workload: str,
    scale: Optional[float] = None,
    n_pairs: int = 20,
    config: Optional[ArrayConfig] = None,
    seed: int = 42,
    **config_overrides,
) -> Cell:
    """The cell ``simulate_workload`` would run for these arguments."""
    return Cell(
        kind="workload",
        scheme=scheme,
        workload=workload,
        scale=workload_scale(workload, scale),
        n_pairs=n_pairs,
        seed=seed,
        config=config,
        config_overrides=tuple(sorted(config_overrides.items())),
    )


def synthetic_cell(
    scheme: str, trace_config: SyntheticTraceConfig, config: ArrayConfig
) -> Cell:
    """The cell ``simulate_synthetic`` would run for these arguments."""
    return Cell(
        kind="synthetic",
        scheme=scheme,
        trace_config=trace_config,
        config=config,
    )


# ----------------------------------------------------------------------
# Cache plumbing
# ----------------------------------------------------------------------
def lookup_cached(key: Tuple, result_type: type = RunMetrics) -> Any:
    """Memory-then-disk lookup; promotes disk hits into the memo.

    ``result_type`` rebuilds a disk entry; returns ``None`` on a miss.
    """
    hit = _CACHE.get(key)
    if hit is not None:
        _stats["memory_hits"] += 1
        return hit
    disk = active_cache()
    if disk is not None:
        result = disk.get(key, result_type)
        if result is not None:
            _stats["disk_hits"] += 1
            _CACHE[key] = result
            return result
    return None


def install_result(key: Tuple, result: Any) -> None:
    """Write a completed result through both cache layers."""
    _CACHE[key] = result
    disk = active_cache()
    if disk is not None:
        disk.put(key, result)


def run_cell(cell: Cell) -> RunMetrics:
    """Cached execution of one cell (the core of ``simulate_*``)."""
    key = cell.key()
    cached = lookup_cached(key)
    if cached is not None:
        return cached
    metrics = cell.execute()
    _stats["computed"] += 1
    install_result(key, metrics)
    return metrics


# ----------------------------------------------------------------------
# Public simulation entry points (signatures unchanged from the seed)
# ----------------------------------------------------------------------
def simulate_workload(
    scheme: str,
    workload: str,
    scale: Optional[float] = None,
    n_pairs: int = 20,
    config: Optional[ArrayConfig] = None,
    seed: int = 42,
    **config_overrides,
) -> RunMetrics:
    """Replay one named paper workload against one scheme (memoized)."""
    return run_cell(
        workload_cell(
            scheme,
            workload,
            scale=scale,
            n_pairs=n_pairs,
            config=config,
            seed=seed,
            **config_overrides,
        )
    )


def simulate_synthetic(
    scheme: str,
    trace_config: SyntheticTraceConfig,
    config: ArrayConfig,
) -> RunMetrics:
    """Replay a synthetic trace configuration (memoized).

    The memo key is the canonical field tuple of ``trace_config`` (shared
    with the persistent cache's hashing), not its ``repr`` — two configs
    with equal fields always hit the same entry.
    """
    return run_cell(synthetic_cell(scheme, trace_config, config))


# ----------------------------------------------------------------------
# Observed (traced / sampled / profiled) execution
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ObservedRun:
    """One cell run: its metrics, what the run cost, and the observers
    that were attached to it."""

    metrics: RunMetrics
    #: Wall time (controller build, replay, consistency check), events
    #: dispatched and simulated time; per-label event counts only when
    #: they were asked for.
    profile: CellProfile
    tracer: Optional[Any] = None  # RecordingTracer when tracing was on
    sampler: Optional[Any] = None  # TimeSeriesSampler when sampling was on


def _meters(registry: Optional[MetricsRegistry]) -> Tuple[Any, ...]:
    """The probes that meter a run into ``registry`` (none without one)."""
    return () if registry is None else (RunInstrumentation(registry),)


def _run_cell(
    cell: Cell,
    trace: Optional[CompiledTrace] = None,
    tracer: Optional[Any] = None,
    probes: Iterable[Any] = (),
    count_labels: bool = False,
) -> ObservedRun:
    """Run one cell outside every cache layer: the single execution body.

    ``probes`` are run-scoped observers handed to
    :func:`~repro.core.base.run_trace`.  Every observer here observes
    without mutating, so the metrics are byte-identical whichever are
    attached.  The timed window starts after the trace is built (or
    attached), so serial and pool runs time the same work.
    ``count_labels`` fills the profile's per-label event counts from the
    engine's label census (events no source counted are
    ``"(unlabeled)"``).
    """
    if trace is None:
        trace = cell.build_trace()
    config = cell.resolve_config()
    started = time.perf_counter()
    sim = Simulator()
    controller = build_controller(cell.scheme, sim, config, tracer=tracer)
    metrics = run_trace(controller, trace, probes=probes)
    controller.assert_consistent()
    profile = CellProfile(
        label=cell.label(),
        wall_s=time.perf_counter() - started,
        events=sim.events_processed,
        sim_time_s=sim.now,
    )
    if count_labels:
        profile.label_counts = {
            label or "(unlabeled)": count
            for label, count in sorted(sim.label_census().items())
        }
    return ObservedRun(metrics, profile, tracer)


def run_cell_observed(
    cell: Cell,
    trace_events: bool = False,
    sample_interval: Optional[float] = None,
    profile: bool = False,
    spans: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> ObservedRun:
    """Execute one cell with observability attached, bypassing all caches.

    Tracing, sampling, profiling and metering all observe without
    mutating, so the returned metrics are byte-identical to
    ``cell.execute()``'s (the cache layers are bypassed anyway to
    guarantee the artifacts describe *this* run, not a memoized one).
    ``spans=True`` upgrades the tracer to a
    :class:`~repro.obs.spans.SpanRecorder` (implies ``trace_events``): the
    event stream then carries per-op phase spans suitable for
    :func:`~repro.obs.attribution.attribute_events`.  ``profile=True``
    adds per-label event counts to the run's always-present profile.
    ``registry`` meters the same run into that registry.
    """
    if spans:
        tracer = SpanRecorder()
    else:
        tracer = RecordingTracer() if trace_events else None
    sampler = None
    if sample_interval is not None:
        sampler = TimeSeriesSampler(sample_interval)
    probes = [sampler] if sampler is not None else []
    probes += _meters(registry)
    run = _run_cell(cell, tracer=tracer, probes=probes, count_labels=profile)
    run.sampler = sampler
    return run


def run_scheme_set(
    workload: str,
    schemes: Iterable[str] = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e"),
    jobs: int = 1,
    **kwargs,
) -> Dict[str, RunMetrics]:
    """The paper's main comparison: all schemes on one workload.

    The uncached cells are computed first (on a process pool when
    ``jobs > 1``); the assembly below then reads them back from the
    cache, so results are identical whatever ``jobs`` is.
    """
    from repro.experiments.parallel import execute_cells

    schemes = tuple(schemes)
    execute_cells(
        [workload_cell(s, workload, **kwargs) for s in schemes], jobs=jobs
    )
    return {
        scheme: simulate_workload(scheme, workload, **kwargs)
        for scheme in schemes
    }


def run_scheme_set_seeds(
    workload: str,
    schemes: Iterable[str],
    seeds: Iterable[int],
    jobs: int = 1,
    **kwargs,
) -> Dict[str, list]:
    """Run every scheme over several trace seeds (for mean ± stdev)."""
    from repro.experiments.parallel import execute_cells

    schemes = tuple(schemes)
    seeds = tuple(seeds)
    execute_cells(
        [
            workload_cell(scheme, workload, seed=seed, **kwargs)
            for seed in seeds
            for scheme in schemes
        ],
        jobs=jobs,
    )
    out: Dict[str, list] = {scheme: [] for scheme in schemes}
    for seed in seeds:
        for scheme in schemes:
            out[scheme].append(
                simulate_workload(scheme, workload, seed=seed, **kwargs)
            )
    return out


def summarize_seeds(metrics_list) -> Dict[str, Tuple[float, float]]:
    """Mean and population stdev of the headline metrics over seeds."""
    import math

    def stats(values):
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    return {
        "response_time_ms": stats(
            [m.mean_response_time_ms for m in metrics_list]
        ),
        "energy_kj": stats([m.total_energy_j / 1e3 for m in metrics_list]),
        "mean_power_w": stats([m.mean_power_w for m in metrics_list]),
        "spin_cycles": stats(
            [float(m.spin_cycle_count) for m in metrics_list]
        ),
    }
