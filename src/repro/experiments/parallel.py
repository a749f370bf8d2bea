"""Cached, optionally pooled execution of cells: the one sweep.

Experiment cells (:class:`~repro.experiments.runner.Cell`), fault-campaign
cells (:class:`~repro.faults.campaign.FaultCell`) and verification cells
(:class:`~repro.verify.fuzzer.VerifyCell`) all go through
:func:`execute_cells`.  Every cell kind exposes ``key()``, ``label()``,
``trace_key()``, ``build_trace()``, a ``result_type`` and
``compute(trace, registry)``, which runs the cell *outside* every cache
layer and returns ``{"result": result.to_dict(), ...}``.  The parent
rebuilds the result with ``result_type.from_dict`` and installs it into
the in-memory memo and the persistent cache.  Because the dict round-trip
is exact and each cell's simulation is single-threaded and seeded,
serial, pooled and warm-cache runs are bit-for-bit identical.

Trace bytes cross the process boundary **once per distinct trace**, not
once per cell: the parent builds each distinct trace (``Cell.trace_key``
groups cells that replay identical traces), publishes its columns into a
:class:`~repro.traces.shm.SharedTraceStore` segment, and submits cells
with a tiny :class:`~repro.traces.shm.TraceRef`.  Workers attach the
segment zero-copy behind the ordinary ``CompiledTrace`` surface and
memoize attachments per process, so consecutive same-trace cells pay
nothing.  Dispatch is locality-aware: pending cells are ordered so
same-trace cells are contiguous, and a bounded in-flight window hands
work out dynamically, keeping the submission queue short enough that
contiguous (warm) cells reach workers in order.

``jobs=1`` never touches the pool: misses are computed in process, one
after another, in input order.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments import runner
from repro.obs.metrics import MetricsRegistry, log_buckets
from repro.obs.profiler import CellProfile, ProfileReport
from repro.traces import shm
from repro.traces.shm import SharedTraceStore, TraceRef

#: Wall-clock buckets for per-cell dispatch histograms: 1 ms – ~9 min.
CELL_WALL_BUCKETS = log_buckets(1e-3, 2.0, 19)


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given.

    Respects the CPU *affinity mask* where the platform exposes one
    (``os.sched_getaffinity``), so a containerized run pinned to 2 of 64
    cores starts 2 workers, not 64.  Falls back to ``os.cpu_count()``.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            count = len(affinity(0))
        except OSError:  # pragma: no cover - platform quirk
            count = 0
        if count:
            return count
    return os.cpu_count() or 1


class CellExecutionError(RuntimeError):
    """A pool worker failed while computing one cell.

    Raised in the parent with the failing cell's human-readable label;
    the worker's original exception is chained as ``__cause__``.  By the
    time this propagates, outstanding futures have been cancelled, the
    pool has been shut down, and every shared-memory segment unlinked.
    """

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(f"cell {label!r} failed: {cause!r}")
        self.label = label


@dataclasses.dataclass
class CellExecution:
    """Outcome summary of one :func:`execute_cells` invocation."""

    total: int = 0
    unique: int = 0
    cached: int = 0
    computed: int = 0
    jobs: int = 1
    #: Per-cell timing, present when ``collect_profiles=True`` was passed.
    profiles: Optional[ProfileReport] = None
    #: One result per input cell, in input order (duplicates repeat).
    results: List[Any] = dataclasses.field(default_factory=list)


def _worker_init() -> None:
    """Pool initializer: pre-import the simulation stack.

    With ``fork`` this is a no-op (the child inherits the parent's
    modules); under ``spawn`` it front-loads the import cost once per
    worker instead of on the first submitted cell.
    """
    import repro.core  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.traces.shm  # noqa: F401
    import repro.verify  # noqa: F401


def _compute_cell(
    cell: Any, ref: Optional[TraceRef], metered: bool = False
) -> Dict[str, Any]:
    """The pool worker, for every cell kind: run one cell uncached.

    Returns ``cell.compute``'s payload (``result``, plus ``profile`` for
    experiment cells) with ``registry`` added when ``metered``.  Bind the
    flag with :func:`functools.partial`, which pickles like the function.
    """
    trace = shm.attach_cached(ref) if ref is not None else None
    registry = MetricsRegistry() if metered else None
    payload = cell.compute(trace, registry)
    if metered:
        payload["registry"] = registry.to_dict()
    return payload


def _telemetry_worker(
    worker: Callable[..., Dict[str, Any]], cell: Any, ref: Optional[TraceRef]
) -> Dict[str, Any]:
    """Envelope any worker entry point with dispatcher telemetry.

    Reports the worker pid, per-cell wall clock, and the shm attach-memo
    hit/miss delta this cell caused — the raw material for the end-of-
    sweep utilization table.  ``worker`` stays a module-level function, so
    the pair pickles like a direct submission.
    """
    before = shm.attach_stats()
    started = time.perf_counter()
    payload = worker(cell, ref)
    wall = time.perf_counter() - started
    after = shm.attach_stats()
    return {
        "payload": payload,
        "telemetry": {
            "pid": os.getpid(),
            "wall_s": wall,
            "attach_hits": after["hits"] - before["hits"],
            "attach_misses": after["misses"] - before["misses"],
        },
    }


def _record_telemetry(
    registry: MetricsRegistry, telemetry: Dict[str, Any], inflight: int
) -> None:
    """Fold one cell's dispatch envelope into the sweep registry."""
    worker = str(telemetry["pid"])
    registry.counter(
        "sweep_worker_cells_total", "cells completed per pool worker",
        worker=worker,
    ).inc()
    registry.counter(
        "sweep_worker_busy_seconds_total",
        "wall-clock busy time per pool worker",
        worker=worker,
    ).inc(telemetry["wall_s"])
    registry.histogram(
        "sweep_cell_wall_seconds", "per-cell wall clock in the pool",
        buckets=CELL_WALL_BUCKETS,
    ).observe(telemetry["wall_s"])
    hits = telemetry.get("attach_hits", 0)
    misses = telemetry.get("attach_misses", 0)
    if hits:
        registry.counter(
            "shm_attach_hits_total", "shared-trace attach memo hits",
            worker=worker,
        ).inc(hits)
    if misses:
        registry.counter(
            "shm_attach_misses_total", "shared-trace segment attaches",
            worker=worker,
        ).inc(misses)
    registry.gauge(
        "sweep_inflight_window_peak",
        "peak submitted-but-unfinished futures",
        agg="max",
    ).set_max(float(inflight))


def run_grouped(
    pending: List[Tuple[Any, Any]],
    jobs: int,
    worker: Callable[..., Dict[str, Any]],
    handle: Callable[[Any, Any, Dict[str, Any]], None],
    telemetry: Optional[MetricsRegistry] = None,
) -> None:
    """Locality-aware pool dispatch behind :func:`execute_cells`.

    ``pending`` is ``[(key, cell), ...]`` where every cell exposes
    ``trace_key()`` / ``build_trace()`` / ``label()``.  The parent builds
    each distinct trace once, publishes it to a :class:`SharedTraceStore`,
    orders cells so same-trace groups are contiguous, and keeps at most
    ``2 * workers`` futures in flight (dynamic hand-out: one new
    submission per completion).  ``handle(key, cell, payload)`` runs in
    the parent per completed cell.

    With a ``telemetry`` registry, every submission is wrapped in
    :func:`_telemetry_worker` and the parent records dispatcher metrics
    (per-worker cells/busy-seconds, cell wall-clock histogram, shm attach
    hit/miss, in-flight window peak); ``handle`` still receives the bare
    payload.

    Error handling: a worker exception cancels all outstanding futures,
    shuts the pool down, unlinks every segment, and raises
    :class:`CellExecutionError` naming the failing cell.  A
    ``KeyboardInterrupt`` in the parent performs the same cleanup and
    re-raises, so neither the pool nor ``/dev/shm`` segments leak.
    """
    use_shm = shm.available()
    with SharedTraceStore() if use_shm else _NullStore() as store:
        refs: Dict[Tuple, Optional[TraceRef]] = {}
        groups: Dict[Optional[str], List[Tuple[Any, Any, Optional[TraceRef]]]] = {}
        for key, cell in pending:
            tkey = cell.trace_key()
            if tkey not in refs:
                refs[tkey] = (
                    store.publish(cell.build_trace()) if use_shm else None
                )
            ref = refs[tkey]
            group_id = ref.trace_hash if ref is not None else None
            groups.setdefault(group_id, []).append((key, cell, ref))
        queue = deque(
            item for group in groups.values() for item in group
        )

        workers = min(jobs, len(queue))
        window = 2 * workers
        futures: Dict[Future, Tuple[Any, Any]] = {}
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init
        ) as pool:
            def _submit_next() -> None:
                if queue:
                    key, cell, ref = queue.popleft()
                    if telemetry is not None:
                        future = pool.submit(
                            _telemetry_worker, worker, cell, ref
                        )
                    else:
                        future = pool.submit(worker, cell, ref)
                    futures[future] = (key, cell)

            try:
                for _ in range(min(window, len(queue))):
                    _submit_next()
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        key, cell = futures.pop(future)
                        try:
                            payload = future.result()
                        except KeyboardInterrupt:
                            raise
                        except BaseException as exc:
                            raise CellExecutionError(
                                cell.label(), exc
                            ) from exc
                        if telemetry is not None:
                            _record_telemetry(
                                telemetry,
                                payload["telemetry"],
                                len(futures) + 1,
                            )
                            payload = payload["payload"]
                        handle(key, cell, payload)
                        _submit_next()
            except BaseException:
                queue.clear()
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=True, cancel_futures=True)
                raise


class _NullStore:
    """Stand-in store when shared memory is unavailable: cells ship whole."""

    def __enter__(self) -> "_NullStore":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def execute_cells(
    cells: Iterable[Any],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    collect_profiles: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> CellExecution:
    """Look up every cell, compute the misses, return results in order.

    Duplicate cells (same canonical key) are looked up and computed once.
    Misses run in process at ``jobs=1`` and on the process pool
    otherwise; each result is installed in both cache layers as it
    arrives and lands in ``results`` at every input position of its key.

    With ``collect_profiles=True`` the report collects every computed
    experiment cell's :class:`CellProfile` (wall time, event count,
    simulated time; serial and pooled runs time the same window); cached
    cells appear with ``source="cached"`` and no timing.

    A ``registry`` meters every computed cell (latency/power histograms,
    controller counters) and, on the pool, the dispatch itself
    (per-worker throughput, shm attach locality, in-flight window);
    worker registries merge into it, order-independently (see
    :meth:`MetricsRegistry.merge`).  Metering observes only: results stay
    byte-identical, and cached cells contribute nothing.
    """
    if jobs is None:
        jobs = default_jobs()
    keyed = [(cell.key(), cell) for cell in cells]
    stats = CellExecution(total=len(keyed), jobs=jobs)
    report = ProfileReport() if collect_profiles else None

    unique: Dict[Tuple, Any] = {}
    for key, cell in keyed:
        unique.setdefault(key, cell)
    stats.unique = len(unique)

    found: Dict[Tuple, Any] = {}
    pending: List[Tuple[Tuple, Any]] = []
    for key, cell in unique.items():
        result = runner.lookup_cached(key, cell.result_type)
        if result is not None:
            found[key] = result
            stats.cached += 1
            if report is not None:
                report.add(CellProfile(label=cell.label(), source="cached"))
        else:
            pending.append((key, cell))

    if isinstance(progress, SweepProgress):
        progress.start(stats.unique, done=stats.cached)

    def _install(key: Tuple, cell: Any, payload: Dict[str, Any]) -> None:
        if "registry" in payload:
            registry.merge(MetricsRegistry.from_dict(payload["registry"]))
        result = cell.result_type.from_dict(payload["result"])
        runner.install_result(key, result)
        found[key] = result
        if report is not None and "profile" in payload:
            report.add(CellProfile.from_dict(payload["profile"]))
        stats.computed += 1
        if isinstance(progress, SweepProgress):
            # The renderer prefixes its own [done/total] counter.
            progress(cell.label())
        elif progress is not None:
            progress(
                f"[{stats.computed + stats.cached}/{stats.unique}] "
                f"{cell.label()}"
            )

    if jobs > 1 and pending:
        worker = functools.partial(
            _compute_cell, metered=registry is not None
        )
        run_grouped(pending, jobs, worker, _install, telemetry=registry)
    else:
        for key, cell in pending:
            payload = cell.compute(None, registry)
            runner._stats["computed"] += 1
            _install(key, cell, payload)

    stats.results = [found[key] for key, _ in keyed]
    if report is not None:
        report.finalize()
        stats.profiles = report
    if isinstance(progress, SweepProgress):
        progress.finish()
    return stats


class SweepProgress:
    """Throttled single-line progress/ETA renderer for long sweeps.

    Drop-in for the ``progress`` callback of :func:`execute_cells` (and
    so of :func:`~repro.faults.campaign.run_campaign`): each call marks
    one cell done and (at most every ``min_interval`` seconds) redraws one
    ``\\r``-terminated status line with percent complete, throughput, and
    the remaining-time estimate.  :meth:`finish` ends the line, so later
    output starts clean.
    """

    def __init__(
        self,
        stream=None,
        min_interval: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self.total = 0
        self.done = 0
        self._initial_done = 0
        self._started = clock()
        self._last_emit = -float("inf")
        self._dirty = False
        self._width = 0

    def start(self, total: int, done: int = 0) -> None:
        """Reset for a sweep of ``total`` cells, ``done`` already cached."""
        self.total = total
        self.done = done
        self._initial_done = done
        self._started = self._clock()
        self._last_emit = -float("inf")

    def __call__(self, message: str = "") -> None:
        self.done += 1
        now = self._clock()
        if (
            now - self._last_emit < self.min_interval
            and self.done < self.total
        ):
            return
        self._last_emit = now
        self._emit(message, now)

    def _emit(self, message: str, now: float) -> None:
        computed = self.done - self._initial_done
        elapsed = now - self._started
        rate = computed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - self.done)
        if rate > 0:
            eta = _fmt_duration(remaining / rate)
        else:
            eta = "?"
        pct = 100.0 * self.done / self.total if self.total else 100.0
        line = (
            f"[{self.done}/{self.total}] {pct:5.1f}%  "
            f"{rate:6.2f} cells/s  eta {eta}"
        )
        if message:
            line += f"  {message}"
        pad = max(0, self._width - len(line))
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._dirty = True

    def finish(self) -> None:
        """Terminate the status line (idempotent)."""
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


def _fmt_duration(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"
