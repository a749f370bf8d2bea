"""Controller base class and the trace replay driver."""

from __future__ import annotations

import abc
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.core.config import ArrayConfig
from repro.core.metrics import RunMetrics
from repro.disk.disk import (
    Disk,
    DiskOp,
    OpKind,
    Priority,
    Scheduler,
    acquire_op,
)
from repro.disk.mechanical import MechanicalModel
from repro.disk.power import PowerState
from repro.raid.request import (
    IORequest,
    RequestKind,
    acquire_request,
    release_request,
)
from repro.sim.engine import SimulationError, Simulator
from repro.traces.compiled import CompiledTrace

if TYPE_CHECKING:
    from repro.core.recovery import RecoveryProcess  # import cycle

#: Kind-column decode table (indexes match KIND_READ / KIND_WRITE).
_KIND_BY_CODE = (RequestKind.READ, RequestKind.WRITE)


def _noop_note(*_args, **_kwargs) -> None:
    """Module-level no-op bound in place of oracle notes when no oracle
    is attached, so hot paths call straight through instead of testing
    ``self.oracle is not None`` per segment."""


class DataLossError(RuntimeError):
    """Both copies of a mirrored pair are gone."""


class Controller(abc.ABC):
    """Base class of all seven array controllers: the mirrored RAID10,
    GRAID and RoLo-P/R/E, and the parity RAID5 and RoLo-5.

    A controller owns its disks, translates logical
    :class:`~repro.raid.request.IORequest` objects into disk operations, and
    implements the scheme's power policy.  Subclasses must implement
    :meth:`submit`, :meth:`_build_disks` and :meth:`disks_by_role`.

    Fault handling is shared by the mirrored schemes: :meth:`fail_disk`
    injects a fail-stop disk failure and :meth:`begin_rebuild` runs an
    online rebuild onto a fresh replacement.  Schemes customize through
    the :meth:`_on_disk_failed` / :meth:`_on_rebuild_complete` hooks
    rather than by overriding the entry points.  The parity schemes have
    no degraded mode, so their :meth:`fail_disk` refuses.
    """

    scheme_name = "abstract"

    def __init__(
        self,
        sim: Simulator,
        config: ArrayConfig,
        tracer: object = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.layout = config.layout()
        self.metrics = RunMetrics()
        # ``tracer`` is a repro.obs Tracer; the NullTracer default is
        # falsy, so disabled tracing normalizes to None and every hook
        # below guards with one identity check.
        self.tracer = tracer if tracer else None
        self._finalized = False
        #: Reads routed around a failed copy (degraded-mode service count).
        self.degraded_reads = 0
        self._pending_sleep: Dict[Disk, Callable[[Disk], None]] = {}
        #: failed disk -> its running rebuild (empty until a rebuild).
        self._rebuilding: Dict[Disk, RecoveryProcess] = {}
        #: Pair indices with a failed copy, maintained by ``fail_disk`` /
        #: rebuild completion so hot routing (mirror pick, write targets)
        #: skips the per-segment ``.failed`` property chains while the
        #: array is healthy.
        self._degraded_pairs: set = set()
        #: Optional repro.faults ConsistencyOracle; attached post-
        #: construction by ``ConsistencyOracle.attach``.  The oracle only
        #: observes, so runs with it enabled are byte-identical.  The
        #: property setter binds ``_note_read`` and the parity schemes'
        #: ``_note_parity_write``/``_note_parity_read`` once per attach — a
        #: module-level no-op when detached — so hot paths never test for
        #: an oracle per segment.
        self.oracle = None
        #: One service-time model (and seek memo) for every disk built.
        self._mechanics = MechanicalModel(config.disk)
        self._build_disks()

    # ------------------------------------------------------------------
    # Oracle attachment (note elision)
    # ------------------------------------------------------------------
    @property
    def oracle(self):
        """The attached consistency oracle (``None`` when detached)."""
        return self._oracle

    @oracle.setter
    def oracle(self, oracle) -> None:
        self._oracle = oracle
        # Cheap-argument notes resolve to bound oracle methods (or the
        # module-level no-op) exactly once per attach; notes whose
        # arguments are expensive to build (copy-name lists) keep an
        # explicit ``if self.oracle is not None`` guard at the call site.
        if oracle is None:
            self._note_read = _noop_note
            self._note_parity_write = _noop_note
            self._note_parity_read = _noop_note
        else:
            self._note_read = oracle.note_read
            self._note_parity_write = oracle.note_parity_write
            self._note_parity_read = oracle.note_parity_read

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_disks(self) -> None:
        """Create the scheme's disks in their initial power states."""

    @abc.abstractmethod
    def submit(self, request: IORequest) -> None:
        """Issue one logical request.  The controller must eventually drive
        ``request`` to completion via its fan-in counters."""

    @abc.abstractmethod
    def disks_by_role(self) -> Dict[str, List[Disk]]:
        """Disks grouped by role ('primary', 'mirror', 'log')."""

    def drain(self) -> None:
        """Flush all inconsistent state (called after the trace completes,
        outside the measured window).  Default: nothing to flush."""

    def dirty_units_total(self) -> int:
        """Stripe units whose mirrored copy is stale.  Used by consistency
        tests; schemes without logging return 0."""
        return 0

    def log_regions(self) -> List:
        """The scheme's log regions (for occupancy sampling); default none."""
        return []

    # ------------------------------------------------------------------
    # Fault injection and online rebuild (shared across all schemes)
    # ------------------------------------------------------------------
    def _locate(self, disk: Disk) -> "tuple":
        """Return ``(role, index)`` of a member disk."""
        for role, disks in self.disks_by_role().items():
            for index, candidate in enumerate(disks):
                if candidate is disk:
                    return role, index
        raise ValueError(f"{disk.name} is not part of {self.scheme_name}")

    def fail_disk(self, disk: Disk) -> None:
        """Inject a fail-stop failure; subsequent I/O routes around it.

        A running rebuild that copies from ``disk`` is aborted, and its
        replacement dropped.  The scheme-specific reaction (duty
        hand-off, destage abort, degraded routing state) happens in
        :meth:`_on_disk_failed`.
        """
        role, index = self._locate(disk)
        disk.fail()
        self._cancel_sleep(disk)
        for failed, rebuild in list(self._rebuilding.items()):
            if rebuild.plan.source is disk:
                rebuild.abort()
                del self._rebuilding[failed]
        if role in ("primary", "mirror"):
            self._degraded_pairs.add(index)
        self._trace_instant(
            "fault", "disk-failure", disk=disk.name, role=role
        )
        self._on_disk_failed(disk, role, index)

    def _on_disk_failed(self, disk: Disk, role: str, index: int) -> None:
        """Scheme hook: adapt in-flight logging/destaging to the failure.

        Runs after the disk is already FAILED.  Default: nothing beyond
        the generic degraded routing."""

    def begin_rebuild(
        self,
        disk: Disk,
        on_complete: Optional[Callable[[], None]] = None,
    ):
        """Rebuild a failed disk onto a fresh replacement, online.

        New writes are mirrored to the replacement while the background
        copy runs, so the replacement is fully consistent at swap time.
        Returns the :class:`~repro.core.recovery.RecoveryProcess`.
        """
        from repro.core.recovery import RecoveryProcess, plan_recovery

        if not disk.failed:
            raise ValueError(f"{disk.name} has not failed")
        if disk in self._rebuilding:
            raise ValueError(f"{disk.name} is already rebuilding")
        role, index = self._locate(disk)
        plan = plan_recovery(self, disk)
        start_ts = self.sim.now

        def _swap(process: "RecoveryProcess") -> None:
            replacement = process.replacement
            self._replace_disk(disk, replacement)
            del self._rebuilding[disk]
            if role in ("primary", "mirror") and not (
                self.primaries[index].failed
                or self.mirrors[index].failed
            ):
                self._degraded_pairs.discard(index)
            self._trace_span(
                "fault",
                "rebuild",
                start_ts,
                disk=disk.name,
                replacement=replacement.name,
            )
            if self.oracle is not None:
                self.oracle.note_rebuilt(role, index, replacement.name)
            self._on_rebuild_complete(disk, replacement)
            if on_complete is not None:
                on_complete()

        process = RecoveryProcess(
            self.sim, self, plan, on_complete=_swap
        )
        self._rebuilding[disk] = process
        process.start()
        return process

    def _replace_disk(self, old: Disk, new: Disk) -> None:
        """Swap a rebuilt replacement into every role list holding ``old``.

        ``disks_by_role`` must therefore return the controller's actual
        lists, not copies (all schemes do)."""
        for disks in self.disks_by_role().values():
            for index, candidate in enumerate(disks):
                if candidate is old:
                    disks[index] = new

    def _on_rebuild_complete(self, old: Disk, new: Disk) -> None:
        """Scheme hook: the replacement has been swapped in for ``old``."""

    def _pair_degraded(self, pair: int) -> bool:
        """True while either disk of a mirrored pair is failed.

        Memoized: ``_degraded_pairs`` is maintained by ``fail_disk`` and
        rebuild completion (the only failure/repair entry points), so the
        healthy-array hot path is one set-membership test instead of two
        property chains per segment.
        """
        return pair in self._degraded_pairs

    def _write_targets(self, pair: int) -> List[Disk]:
        """Where an in-place write to ``pair`` must land: the surviving
        copies, plus the replacement while a rebuild is running."""
        primary = self.primaries[pair]
        mirror = self.mirrors[pair]
        if pair not in self._degraded_pairs:
            return [primary, mirror]
        targets: List[Disk] = []
        for disk in (primary, mirror):
            if disk.failed:
                rebuild = self._rebuilding.get(disk)
                if rebuild is not None:
                    targets.append(rebuild.replacement)
            else:
                targets.append(disk)
        if not targets:
            raise DataLossError(f"pair {pair} has lost both copies")
        return targets

    def _read_source(self, pair: int) -> Disk:
        """Least-loaded surviving copy of a mirrored pair."""
        primary = self.primaries[pair]
        mirror = self.mirrors[pair]
        if pair not in self._degraded_pairs:
            # Healthy pair: inline the two-way min of ``queue_depth``
            # (ties go to the primary, matching min() over [primary,
            # mirror]).
            p_queues = primary._queues
            m_queues = mirror._queues
            p_depth = len(p_queues[0]) + len(p_queues[1])
            if p_depth <= len(m_queues[0]) + len(m_queues[1]):
                return primary
            return mirror
        alive = [d for d in (primary, mirror) if not d.failed]
        if not alive:
            raise DataLossError(f"pair {pair} has lost both copies")
        if len(alive) == 1:
            self.degraded_reads += 1
        return min(alive, key=lambda d: d.queue_depth)

    def _unit_coverage(self, offset: int, nbytes: int):
        """Yield ``(pair, unit_base, fully_covered)`` for every stripe unit
        a logical extent touches — the consistency oracle's granularity."""
        unit = self.layout.stripe_unit
        for seg in self.layout.map_extent(offset, nbytes):
            first = (seg.disk_offset // unit) * unit
            last = ((seg.end_offset - 1) // unit) * unit
            for base in range(first, last + 1, unit):
                full = (
                    seg.disk_offset <= base
                    and seg.end_offset >= base + unit
                )
                yield seg.pair, base, full

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def all_disks(self) -> List[Disk]:
        return [d for disks in self.disks_by_role().values() for d in disks]

    def _make_disk(
        self, name: str, standby: bool = False
    ) -> Disk:
        initial = PowerState.STANDBY if standby else PowerState.IDLE
        return Disk(
            self.sim,
            self.config.disk,
            name,
            initial_state=initial,
            scheduler=Scheduler(self.config.disk_scheduler),
            tracer=self.tracer,
            mechanics=self._mechanics,
        )

    # ------------------------------------------------------------------
    # Tracing hooks (no-ops unless a tracer is attached).  Subclasses call
    # these at rotation hand-offs, destage-process completion, cycle-window
    # closure and log-space occupancy changes; every hook observes only, so
    # traced runs stay bit-identical to untraced ones.
    # ------------------------------------------------------------------
    def _trace_instant(self, category: str, name: str, **attrs) -> None:
        """Point event on the scheme's track (rotation, deactivation, ...)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                category, name, self.scheme_name, self.sim.now, **attrs
            )

    def _trace_span(
        self, category: str, name: str, start_ts: float, **attrs
    ) -> None:
        """Interval ending now on the scheme's track (destage process, ...)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.span(
                category,
                name,
                self.scheme_name,
                start_ts,
                self.sim.now,
                **attrs,
            )

    def _trace_occupancy(self, region) -> None:
        """Sample one log region's occupancy as a counter series."""
        tracer = self.tracer
        if tracer is not None:
            tracer.counter(
                f"occupancy:{region.name}",
                self.scheme_name,
                self.sim.now,
                region.occupancy,
            )

    def _trace_cycle(self, window) -> None:
        """Emit a closed cycle window as logging + destage phase spans."""
        tracer = self.tracer
        if tracer is None or window.destage_start < 0:
            return
        tracer.span(
            "cycle",
            "logging",
            self.scheme_name,
            window.logging_start,
            window.destage_start,
        )
        if window.destage_end >= 0:
            tracer.span(
                "cycle",
                "destage-window",
                self.scheme_name,
                window.destage_start,
                window.destage_end,
            )

    def _issue(
        self,
        disk: Disk,
        kind: OpKind,
        offset: int,
        nbytes: int,
        request: Optional[IORequest] = None,
        priority: Priority = Priority.FOREGROUND,
        sequential: bool = False,
        on_complete: Optional[Callable[[DiskOp], None]] = None,
    ) -> DiskOp:
        """Submit one disk op, optionally tied to a request's fan-in."""
        if request is not None:
            # request.add_waits() inline, its check included.
            if request._sealed and request._outstanding == 0:
                raise ValueError("request already completed")
            request._outstanding += 1
            if on_complete is None:
                # Common case: the fan-in is the only completion consumer,
                # so hand the disk the bound method directly instead of
                # allocating a closure per operation.
                callback: Optional[Callable[[DiskOp], None]] = (
                    request.op_complete
                )
            else:

                def _done(op: DiskOp, _cb=on_complete) -> None:
                    _cb(op)
                    request.op_done(self.sim.now)

                # Span layer linkage: lets a span-aware tracer map this
                # op back to its owning request (bound methods carry
                # __self__; closures need the explicit tag).
                _done._span_owner = request
                callback = _done
        else:
            callback = on_complete
        # Slab-pooled: the disk recycles the op right after its completion
        # callback runs, so no caller of _issue may retain the return value
        # past that point (none do — the fan-in reads finish_time and
        # forgets the op).
        op = acquire_op(
            kind, offset // 512, nbytes, priority, callback, sequential
        )
        disk.submit(op)
        return op

    def total_energy_now(self) -> float:
        """Instantaneous cumulative energy across all disks (joules)."""
        now = self.sim.now
        return sum(d.power.energy_at(now) for d in self.all_disks())

    def _sleep_when_quiet(self, disk: Disk) -> None:
        """Spin ``disk`` down now or as soon as it drains."""
        if disk.failed or disk in self._pending_sleep:
            return
        if disk.request_spin_down():
            return

        def _listener(d: Disk) -> None:
            if d.request_spin_down():
                self._cancel_sleep(d)

        self._pending_sleep[disk] = _listener
        disk.add_idle_listener(_listener)

    def _cancel_sleep(self, disk: Disk) -> None:
        """Withdraw a pending sleep request (e.g. the disk went on duty)."""
        listener = self._pending_sleep.pop(disk, None)
        if listener is not None:
            disk.remove_idle_listener(listener)

    def finalize(self) -> RunMetrics:
        """Close accounting at the current instant and return the metrics.

        Idempotent: the first call fixes the measurement window and takes a
        snapshot, so post-window flush activity (``drain``) never leaks
        into the reported counters.
        """
        if not self._finalized:
            self.metrics.finalize(self.sim.now, self.disks_by_role())
            self._metrics_snapshot = self.metrics.snapshot()
            self._finalized = True
        return self._metrics_snapshot

    def assert_consistent(self) -> None:
        """Raise AssertionError if any mirrored data is still stale."""
        dirty = self.dirty_units_total()
        if dirty:
            raise AssertionError(
                f"{self.scheme_name}: {dirty} stripe units still dirty"
            )


class TraceDriver:
    """Replays a trace against a controller with open-loop arrivals.

    Arrivals are streamed: only the *next* arrival (plus whatever
    completions are outstanding) lives in the event heap at any instant, so
    peak heap size is O(in-flight), independent of trace length.  The
    driver reads arrival/offset/size/kind from the trace's columns by
    index, one arrival event per request, and never materializes a
    ``TraceRecord``.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: Controller,
        trace: CompiledTrace,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.trace = trace
        self.on_complete = on_complete
        self._arrivals = trace.arrivals
        self._offsets = trace.offsets
        self._sizes = trace.sizes
        self._kinds = trace.kinds
        self._n = len(trace.arrivals)
        self._index = 0
        self._outstanding = 0
        self._dispatched = 0
        self._arrivals_done = False
        self.completed_at: float = -1.0
        # Each arrival event dispatches one request: the driver's census.
        # Under a tracer, the dispatch number is the request's trace id
        # (``IORequest.rid``), so traces are comparable across runs.
        sim.add_tally(lambda: ("arrival", self._dispatched))

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        i = self._index
        if i >= self._n:
            self._arrivals_done = True
            self._check_done()
            return
        self._index = i + 1
        # Simulator.at inline: the arrival's heap entry, pushed directly.
        sim = self.sim
        time = self._arrivals[i]
        if not time >= sim._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {sim._now!r}"
            )
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, [time, seq, self._arrive, (i,)])

    def _arrive(self, i: int) -> None:
        # Slab-pooled: _request_done releases the request after recording
        # its response, so replay allocates no per-request objects.
        request = acquire_request(
            _KIND_BY_CODE[self._kinds[i]],
            self._offsets[i],
            self._sizes[i],
            self.sim._now,
            self._request_done,
        )
        self._outstanding += 1
        if self.controller.tracer is not None:
            request.rid = self._dispatched
        self._dispatched += 1
        self.controller.submit(request)
        self._schedule_next()

    def _request_done(self, request: IORequest) -> None:
        self.controller.metrics.record_response(
            request.is_write, request.response_time
        )
        tracer = self.controller.tracer
        if tracer is not None and request.rid is not None:
            tracer.request_completed(request, self.sim.now)
        release_request(request)
        self._outstanding -= 1
        self._check_done()

    def _check_done(self) -> None:
        if self._arrivals_done and self._outstanding == 0:
            if self.completed_at < 0:
                self.completed_at = self.sim.now
                if self.on_complete is not None:
                    self.on_complete()


def run_trace(
    controller: Controller,
    trace: CompiledTrace,
    drain: bool = True,
    probes: Sequence[Any] = (),
) -> RunMetrics:
    """Replay ``trace`` against ``controller`` and return its metrics.

    The measurement window closes when the last request completes; the
    post-trace flush (``drain=True``) brings mirrors consistent *outside*
    the window so schemes are compared over identical horizons.

    ``probes`` are run-scoped observers: objects with
    ``install(sim, controller)`` and ``uninstall()``.  They install in the
    order given, before the first arrival is scheduled, and uninstall in
    reverse order after the drain and :meth:`Controller.finalize` -- also
    when the run raises.
    """
    sim = controller.sim
    driver = TraceDriver(
        sim, controller, trace, on_complete=controller.finalize
    )
    installed = []
    try:
        for probe in probes:
            probe.install(sim, controller)
            installed.append(probe)
        driver.start()
        sim.run()
        if driver.completed_at < 0:
            raise RuntimeError("trace replay did not complete")
        if drain:
            controller.drain()
            sim.run()
        if controller.tracer is not None:
            controller.tracer.finish(sim.now)
        return controller.finalize()
    finally:
        for probe in reversed(installed):
            probe.uninstall()
