"""Destage processes.

A :class:`DestageProcess` moves a snapshot of inconsistent stripe units, as
contiguous ``(offset, nbytes)`` extents, from a source disk to one or more
target disks as *background* I/O.  Two driving modes cover all schemes in
the paper:

* ``idle_gated=True`` — RoLo's decentralized destaging (§III-A): the next
  batch is issued only after every involved disk has been free of foreground
  work for a grace interval, so destage I/O is spread and diluted among the
  short idle slots.
* ``idle_gated=False`` — centralized destaging (GRAID, and RoLo-E's
  end-of-log destage): batches chain back-to-back at background priority,
  which is exactly the bursty behaviour §II measures.

Either way the batch in flight runs at :class:`~repro.disk.disk.Priority`
BACKGROUND, so queued foreground requests always pass it.

A centralized chain (every rebuild, too) *fast-forwards* while nothing
else can interleave with it: it completes and starts its own ops inline,
without pooled ops, heap events or ``Disk.submit``, and hands back to
the event path the moment anything else could run first; a
single-target chain copies whole batches at a time in local variables,
pushing each disk's standby timer once per block instead of once per
idle.  The outputs are exactly those of the event path (see
:meth:`DestageProcess._stretch` and :meth:`DestageProcess._steady`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.disk.disk import (
    Disk,
    DiskOp,
    OpKind,
    Priority,
    acquire_op,
    release_op,
)
from repro.disk.power import PowerState
from repro.sim.engine import Simulator, Timer


def split_runs(
    runs: Iterable[Tuple[int, int]], unit_size: int, max_batch: int
) -> List[Tuple[int, int]]:
    """Cut contiguous ``(offset, nbytes)`` runs into batches, in order.

    The one splitting rule shared by destage and rebuild: each run becomes
    ``floor(max_batch / unit_size) * unit_size``-byte pieces, the remainder
    last.
    """
    if unit_size <= 0 or max_batch < unit_size:
        raise ValueError("invalid unit/batch sizes")
    step = max_batch // unit_size * unit_size
    batches: List[Tuple[int, int]] = []
    for run in runs:
        offset, nbytes = run
        if nbytes > step:
            # Whole steps first; the remainder (1..step bytes) is last.
            last = offset + (nbytes - 1) // step * step
            batches += [(start, step) for start in range(offset, last, step)]
            run = (last, offset + nbytes - last)
        batches.append(run)
    return batches


def coalesce_units(
    units: Iterable[int], unit_size: int, max_batch: int
) -> List[Tuple[int, int]]:
    """Merge unit offsets (any order) into (offset, nbytes) batches.

    Adjacent units form one contiguous run, cut by :func:`split_runs` —
    the paper's "bundle as many data blocks with successive location as
    possible in one destaging I/O operation" (§VI).
    """
    runs: List[Tuple[int, int]] = []
    start = end = None
    for unit in sorted(units):
        if unit != end:
            if start is not None:
                runs.append((start, end - start))
            start = unit
        end = unit + unit_size
    if start is not None:
        runs.append((start, end - start))
    return split_runs(runs, unit_size, max_batch)


def _bucket(bounds: List[float], gap: float) -> Tuple[int, float, float]:
    """The bucket ``Histogram.add(gap)`` counts a positive ``gap`` in, as
    ``(index, lo, hi)``: every positive gap with ``lo < gap <= hi`` lands
    there too."""
    index = bisect_left(bounds, gap)
    lo = bounds[index - 1] if index else 0.0
    hi = bounds[index] if index < len(bounds) else math.inf
    return index, max(lo, 0.0), hi


class DestageProcess:
    """Copies a fixed list of extents from ``source`` to ``targets``.

    ``batches`` are the ``(offset, nbytes)`` extents to issue, in order, each
    a whole number of ``unit_size`` stripe units (see :func:`coalesce_units`
    and :func:`split_runs`).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        source: Disk,
        targets: Sequence[Disk],
        batches: Sequence[Tuple[int, int]],
        unit_size: int,
        idle_gated: bool,
        idle_grace_s: float,
        on_complete: Optional[Callable[["DestageProcess"], None]] = None,
    ) -> None:
        if not targets:
            raise ValueError("need at least one target disk")
        self.sim = sim
        self.name = name
        self.source = source
        self.targets = list(targets)
        self.unit_size = unit_size
        self.idle_gated = idle_gated
        self._batches = list(batches)
        self._next_batch = 0
        self._in_flight = False
        self._writes_outstanding = 0
        self.aborted = False
        self.on_complete = on_complete
        self.bytes_moved = 0
        #: Batches whose read was issued inside a fast-forward stretch,
        #: each skipping that read's ``Disk.submit``.  The writes skip
        #: ``len(targets)`` submits per batch whose read *completed* in a
        #: stretch, a count that differs from this one by the stretches
        #: begun at a read issued on the event path (+1 each), less the
        #: reads issued in a stretch that completed on the event path
        #: (-1 each).  A chain fast-forwarded in one stretch up to its
        #: last batch balances the two; a chain that stretches twice can
        #: be one batch off (the RoLo-E ``fail@1.5:M1`` rebuild).
        self.inline_batches = 0
        #: Virtual completions in flight during a stretch, as
        #: ``(time, seq, disk)``.
        self._pending: List[Tuple[float, int, Disk]] = []
        self.started_at = sim.now
        self.finished_at: float = -1.0
        self._gate_disks = [source] + self.targets
        self._timer: Optional[Timer] = None
        if idle_gated:
            self._timer = Timer(sim, idle_grace_s, self._grace_elapsed)
            for disk in self._gate_disks:
                disk.add_idle_listener(self._on_disk_idle)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finished_at >= 0

    @property
    def remaining_batches(self) -> int:
        return len(self._batches) - self._next_batch

    def _batch_units(self, batch: Tuple[int, int]) -> List[int]:
        offset, nbytes = batch
        return list(range(offset, offset + nbytes, self.unit_size))

    def completed_units(self) -> List[int]:
        """Unit offsets whose copy has fully landed on every target.

        The batch currently in flight is *not* counted: its write fan-out
        may be partial, so after an abort those units must be re-destaged.
        """
        upto = self._next_batch - (1 if self._in_flight else 0)
        units: List[int] = []
        for batch in self._batches[:upto]:
            units.extend(self._batch_units(batch))
        return units

    def remaining_units(self) -> List[int]:
        """Unit offsets not yet safely destaged (includes any in-flight batch)."""
        start = self._next_batch - (1 if self._in_flight else 0)
        units: List[int] = []
        for batch in self._batches[start:]:
            units.extend(self._batch_units(batch))
        return units

    def abort(self) -> None:
        """Stop the process without running ``on_complete``.

        Used when a participating disk fails mid-cycle.  In-flight disk ops
        are left to complete (their effects are dropped); the caller decides
        what to do with :meth:`remaining_units`.  Idempotent.
        """
        if self.done:
            return
        self.aborted = True
        self.finished_at = self.sim.now
        self._detach()

    def start(self) -> None:
        """Begin pumping.  Completes immediately when there is nothing to do."""
        if self.done:
            return
        if self._next_batch >= len(self._batches):
            self._finish()
            return
        if self.idle_gated:
            self._poke()
        else:
            self._issue_next()

    # ------------------------------------------------------------------
    # Idle gating
    # ------------------------------------------------------------------
    def _quiet(self) -> bool:
        """True when no foreground work is pending on any involved disk."""
        return all(d.pending_foreground == 0 for d in self._gate_disks)

    def _on_disk_idle(self, _disk: Disk) -> None:
        self._poke()

    def _poke(self) -> None:
        if self.done or self._in_flight:
            return
        if self._quiet():
            assert self._timer is not None
            if not self._timer.armed:
                self._timer.arm()

    def _grace_elapsed(self) -> None:
        if self.done or self._in_flight:
            return
        if self._quiet():
            self._issue_next()
        # else: a foreground burst arrived during the grace window; the idle
        # listeners will re-arm the timer when the disks drain again.

    # ------------------------------------------------------------------
    # Batch pipeline: read from source, then write to every target.
    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        if self._in_flight or self.done:
            return
        if self._next_batch >= len(self._batches):
            self._finish()
            return
        offset, nbytes = self._batches[self._next_batch]
        self._next_batch += 1
        self._in_flight = True
        # Copy ops come from the slab pool; the disk recycles each one
        # after its callback, which reads the extent off the op itself.
        event = self.source.submit(
            acquire_op(
                OpKind.READ, offset // 512, nbytes, Priority.BACKGROUND,
                self._read_done,
            )
        )
        if event is not None and not self.idle_gated:
            # The read went straight into service: take its completion
            # event, so a stretch can start from it at top level.
            event.callback = self._read_event

    def _read_done(self, op: DiskOp) -> None:
        if self.aborted:
            return
        sector, nbytes = op.sector, op.nbytes
        self._writes_outstanding = len(self.targets)
        for target in self.targets:
            target.submit(
                acquire_op(
                    OpKind.WRITE, sector, nbytes, Priority.BACKGROUND,
                    self._write_done,
                )
            )

    def _write_done(self, op: DiskOp) -> None:
        self._writes_outstanding -= 1
        if self.aborted:
            return
        if self._writes_outstanding > 0:
            return
        self.bytes_moved += op.nbytes
        self._in_flight = False
        if self._next_batch >= len(self._batches):
            self._finish()
        elif self.idle_gated:
            self._poke()
        else:
            self._issue_next()

    # ------------------------------------------------------------------
    # Fast-forward: the chain's own ops, completed without events.
    # ------------------------------------------------------------------
    def _read_event(self, op: DiskOp) -> None:
        """Completion event of a read that went straight into service."""
        if not self._stretch(op):
            self.source._complete(op)

    def _stretch(self, op: DiskOp) -> bool:
        """Run the chain inline from the read ``op`` completing now.

        Returns ``False``, having changed nothing, when the read's batch
        cannot run inline; the caller then completes it on the event path.

        Inside a stretch every op of the chain is *virtual*: ``op`` itself
        stands in service on its disk, and each completion keeps the
        ``(time, seq)`` its event would have had.  The loop below is the
        event path with the events taken out, step for step and in the
        same float order: ``Disk._complete_fast``'s bookkeeping, the
        chain's callback, ``Disk._start`` for the ops that callback
        starts, and a call to ``Disk._go_idle`` as the completing disk's
        tail, its standby timer and real idle listeners included (no
        tracer or op observer is attached, so no other hook runs).  The
        next completion is then dispatched in heap order as the run loop
        would: clock, ``events_processed``, stride countdown.  Before each
        dispatch the heap, ``stop()`` and an abort are checked again,
        because listeners may schedule, stop or abort; when anything else
        could run first, the pending completions become real events at
        their reserved ``(time, seq)`` (:meth:`_hand_back`).

        A read completes inline only when its batch's writes are sure to
        finish before anything else and within ``run(until=)`` too, so a
        stretch hands back between batches unless a listener intervenes;
        and never the last batch's read, so ``on_complete`` runs on the
        event path.

        This per-completion body takes what the steady-state loop
        (:meth:`_steady`, tried at every batch boundary of a
        single-target chain) cannot: the first batch, seeks, size
        changes, the last batch, several targets, idle listeners, stride
        points and horizon ties.
        """
        sim = self.sim
        heap = sim._heap
        time = sim._now
        head = sim._head() if heap else None
        if (
            self.aborted
            or not self._batch_fits(op, time, head)
            or not self._unobserved()
        ):
            return False
        op._pooled = False  # recycled when the stretch ends
        source = self.source
        targets = self.targets
        n_targets = len(targets)
        batches = self._batches
        pending = self._pending
        active = PowerState.ACTIVE
        idle = PowerState.IDLE
        disk = source  # the read whose event the run loop just popped
        nbytes = op.nbytes
        end = source._end_sector(op.sector, nbytes)  # same for every disk
        # The run loop's event count and stride countdown, kept locally
        # while the stretch runs (nothing reads them before it returns).
        dispatched = 0
        stride = sim._stride_fn
        left = sim._stride_left
        try:
            while True:
                # ``disk`` completes ``op`` at ``time``: _complete_fast ...
                disk._head_sector = end
                disk._in_service = None
                disk.ops_completed += 1
                disk.bytes_transferred += nbytes
                disk.busy_time += time - op.start_time
                disk.background_ops += 1
                # ... its callback: _read_done / _write_done ...
                starting: Sequence[Disk] = ()
                if disk is source:
                    if not self.aborted:
                        self._writes_outstanding = n_targets
                        op.kind = OpKind.WRITE
                        op.on_complete = self._write_done
                        starting = targets
                else:
                    self._writes_outstanding -= 1
                    if not (self.aborted or self._writes_outstanding):
                        self.bytes_moved += nbytes
                        self._in_flight = False
                        state = source.power._state
                        queues = source._queues
                        if source._in_service is None and not (
                            queues[0] or queues[1]
                        ) and (state is idle or state is active):
                            # _issue_next (never the last batch's _finish).
                            offset, nbytes = batches[self._next_batch]
                            self._next_batch += 1
                            self._in_flight = True
                            self.inline_batches += 1
                            op.kind = OpKind.READ
                            op.sector = sector = offset // 512
                            op.nbytes = nbytes
                            op.on_complete = self._read_done
                            end = source._end_sector(sector, nbytes)
                            starting = (source,)
                        else:
                            self._issue_next()  # a real read: stretch over
                # ... which starts ops, each like Disk._start minus the event ...
                for starter in starting:
                    seq = sim._seq
                    sim._seq = seq + 1
                    starter._in_service = op
                    op.start_time = time
                    since = starter._idle_since
                    if since >= 0:
                        gap = time - since
                        if gap > 0:
                            starter.idle_gap_histogram.add(gap)
                        starter._idle_since = -1.0
                    power = starter.power
                    state = power._state
                    if state is not active:
                        elapsed = time - power._last_time
                        if elapsed:
                            power.energy_joules += power._watts * elapsed
                            power.state_durations[state] += elapsed
                        power._last_time = time
                        power._state = active
                        power._watts = starter._active_watts
                    sector = op.sector
                    head_sector = starter._head_sector
                    if sector == head_sector:
                        service = nbytes / starter._transfer_rate
                    else:
                        service = starter._service_time(
                            head_sector, sector, nbytes
                        )
                    if starter.slowdown_factor != 1.0:
                        service *= starter.slowdown_factor
                    pending.append((time + service, seq, starter))
                # ... and the completing disk's tail.
                if disk._queues[0] or disk._queues[1]:
                    disk._try_start()
                elif disk._in_service is None:
                    disk._go_idle(time)
                # At a batch boundary of a single-target chain (the write
                # just completed and the next read started), whole batches
                # may run in the steady-state loop; without a stride its
                # budget is more completions than the chain has.
                if n_targets == 1 and disk is not source and pending:
                    done = self._steady(
                        op, 2 * len(batches) if stride is None else left - 1
                    )
                    if done:
                        dispatched += done
                        if stride is not None:
                            left -= done
                        end = source._end_sector(op.sector, nbytes)
                # The next virtual completion, if nothing else can run first
                # (``_batch_fits`` keeps ``run(until=)``: nothing in a batch
                # completes after its writes).
                if not pending:
                    break
                if n_targets > 1:
                    pending.sort()  # writes to several targets
                time, seq, disk = pending[0]
                head = None
                if heap:
                    head = heap[0]
                    if head[2].cancelled:
                        head = sim._head()
                if (
                    sim._stopped
                    or self.aborted
                    or (
                        head is not None
                        and (
                            head[0] < time
                            or (head[0] == time and head[1] < seq)
                        )
                    )
                    or (disk is source and not self._batch_fits(op, time, head))
                ):
                    self._hand_back(op)
                    return True
                del pending[0]
                sim._now = time
                dispatched += 1
                if stride is not None:
                    left -= 1
                    if not left:
                        left = sim._stride_every
                        stride()
        finally:
            sim.events_processed += dispatched
            if stride is not None:
                sim._stride_left = left
        release_op(op)  # the chain went back to submitting real ops
        return True

    def _steady(self, op: DiskOp, budget: int) -> int:
        """Copy whole batches of a single-target chain in local variables.

        :meth:`_stretch` calls this at a batch boundary: the write has just
        completed inline and the read ``op`` is the one pending completion.
        While the chain alone can run, every batch is the same two
        head-contiguous transfers, so the loop holds both disks' counters,
        power integration and idle-gap buckets in locals and does only the
        event path's float operations, in its order: the completion clock
        ``time + service`` with the same ``nbytes / _transfer_rate``
        (× ``slowdown_factor``) service, each disk's busy time,
        ``energy_joules += watts * elapsed`` and ``state_durations`` adds,
        and the bucket ``Histogram.add`` would pick (cached: steady gaps
        repeat).  Integer counters, seqs and the event count advance in
        bulk when the block ends, and everything is written back before
        anything else can observe it; no foreign code runs inside a block.

        A disk's standby timer re-arms each time the disk goes idle: each
        such virtual idle takes one seq after the op it starts, as on the
        event path, and the timer's pending expiry is pushed once, at
        write-back, where its last arm would have put it.

        A batch is taken only while neither disk has an idle listener, the
        source has no latent errors, its read is not the last batch's and
        the next batch continues it with the same size.  The block ends
        before a batch whose write would not complete strictly before the
        heap's next live entry other than the two standby timers' (ties go
        to :meth:`_stretch`, which compares seqs) or would complete past
        ``run(until=)``, before a completion not strictly earlier than a
        standby timer's pending expiry (so no timer fires inside a block:
        a batch period shorter than the interval), and before the
        completion that would bring the stride countdown to zero, so its
        callback sees the state it sees on the event path.  Returns the
        completions dispatched, at most ``budget``, with the next one left
        in ``self._pending``; 0 when it takes none, having changed nothing.
        """
        sim = self.sim
        source = self.source
        target = self.targets[0]
        sector = op.sector
        if (
            budget < 1
            or sim._stopped
            or self.aborted
            or source._idle_listeners
            or target._idle_listeners
            or source._latent_errors
            or target._head_sector != sector
        ):
            return 0
        # Standby timers: a disk's pending expiry, then the one each of its
        # idles re-arms (``math.inf`` without a timer).
        s_timer = source.standby_timer
        t_timer = target.standby_timer
        s_interval = t_interval = s_expiry = t_expiry = math.inf
        own: Tuple[Any, ...] = ()
        if s_timer is not None:
            s_interval = s_timer.interval
            if s_timer.armed:
                own = (s_timer._event,)
                s_expiry = s_timer._event.time
        if t_timer is not None:
            t_interval = t_timer.interval
            if t_timer.armed:
                own += (t_timer._event,)
                t_expiry = t_timer._event.time
        # A write must complete before ``limit``: the heap's next live
        # entry but the timers' own, or just past ``run(until=)``.
        limit = math.nextafter(sim._until, math.inf)
        if sim._heap:
            head = sim._head_except(own)
            if head is not None and head[0] < limit:
                limit = head[0]
        pending = self._pending
        t_read = pending[0][0]
        nbytes = op.nbytes
        read_s = nbytes / source._transfer_rate
        if source.slowdown_factor != 1.0:
            read_s *= source.slowdown_factor
        write_s = nbytes / target._transfer_rate
        if target.slowdown_factor != 1.0:
            write_s *= target.slowdown_factor
        # Disk end sectors are start + whole sectors, so this is the
        # sector step between contiguous batches.
        step = source._end_sector(sector, nbytes) - sector
        batches = self._batches
        n_batches = len(batches)
        index = self._next_batch
        started = op.start_time  # the pending read's start
        active = PowerState.ACTIVE
        idle = PowerState.IDLE
        s_power = source.power
        t_power = target.power
        s_durations = s_power.state_durations
        t_durations = t_power.state_durations
        s_energy = s_power.energy_joules
        t_energy = t_power.energy_joules
        s_active = s_durations[active]
        s_idle = s_durations[idle]
        t_active = t_durations[active]
        t_idle = t_durations[idle]
        s_active_w = source._active_watts
        s_idle_w = source._idle_watts
        t_active_w = target._active_watts
        t_idle_w = target._idle_watts
        s_busy = source.busy_time
        t_busy = target.busy_time
        # Idle gaps: each disk's cached bucket is counts[bucket] for
        # lo < gap <= hi; a gap outside it flushes the hits and re-buckets.
        s_hist = source.idle_gap_histogram
        t_hist = target.idle_gap_histogram
        s_bucket = t_bucket = s_hits = t_hits = 0
        s_lo = s_hi = t_lo = t_hi = math.nan
        left = budget
        while index < n_batches:
            offset, size = batches[index]
            if size != nbytes or offset // 512 != sector + step:
                break
            t_write = t_read + write_s
            s_next = t_read + s_interval  # the read's idle re-arms it
            if (
                t_write >= limit
                or t_read >= s_expiry
                or t_write >= s_next
                or t_write >= t_expiry
            ):
                break
            # The read completes at t_read: the write starts on the target
            # (idle since ``started``) and the source goes idle.
            s_expiry = s_next
            gap = t_read - started
            s_busy += gap
            if t_lo < gap <= t_hi:
                t_hits += 1
            elif gap > 0:
                t_hist.counts[t_bucket] += t_hits
                t_hist.count += t_hits
                t_bucket, t_lo, t_hi = _bucket(t_hist.bounds, gap)
                t_hits = 1
            t_energy += t_idle_w * gap
            t_idle += gap
            s_energy += s_active_w * gap
            s_active += gap
            left -= 1
            if not left:
                break
            # The write completes at t_write: the next read starts on the
            # source (idle since t_read) and the target goes idle.
            t_expiry = t_write + t_interval
            gap = t_write - t_read
            t_busy += gap
            if s_lo < gap <= s_hi:
                s_hits += 1
            elif gap > 0:
                s_hist.counts[s_bucket] += s_hits
                s_hist.count += s_hits
                s_bucket, s_lo, s_hi = _bucket(s_hist.bounds, gap)
                s_hits = 1
            s_energy += s_idle_w * gap
            s_idle += gap
            t_energy += t_active_w * gap
            t_active += gap
            index += 1
            sector += step
            started = t_write
            t_read = t_write + read_s
            left -= 1
            if not left:
                break
        done = budget - left
        if not done:
            return 0
        writes = done // 2  # a block starts with a read
        reads = done - writes
        # Write-back.
        s_power.energy_joules = s_energy
        t_power.energy_joules = t_energy
        s_durations[active] = s_active
        s_durations[idle] = s_idle
        t_durations[active] = t_active
        t_durations[idle] = t_idle
        source.busy_time = s_busy
        target.busy_time = t_busy
        s_hist.counts[s_bucket] += s_hits
        s_hist.count += s_hits
        t_hist.counts[t_bucket] += t_hits
        t_hist.count += t_hits
        source.ops_completed += reads
        source.bytes_transferred += reads * nbytes
        source.background_ops += reads
        target.ops_completed += writes
        target.bytes_transferred += writes * nbytes
        target.background_ops += writes
        self._next_batch = index
        self.inline_batches += writes
        self.bytes_moved += writes * nbytes
        # Seqs: each completion's op start, then its disk's timer arm.
        read_seqs = 1 if s_timer is None else 2
        write_seqs = 1 if t_timer is None else 2
        base = sim._seq
        sim._seq = base + reads * read_seqs + writes * write_seqs
        last_read = base + writes * (read_seqs + write_seqs)
        if reads == writes:
            last_read -= read_seqs + write_seqs
        last_write = base + writes * read_seqs + (writes - 1) * write_seqs
        op.sector = sector
        if reads > writes:
            # Ends before the write completes: the target serves it.
            sim._now = t_read
            op.kind = OpKind.WRITE
            op.on_complete = self._write_done
            op.start_time = t_read
            self._writes_outstanding = 1
            source._in_service = None
            source._head_sector = sector + step
            source._idle_since = t_read
            s_power._state = idle
            s_power._watts = s_idle_w
            s_power._last_time = t_read
            target._in_service = op
            target._head_sector = sector
            target._idle_since = -1.0
            t_power._state = active
            t_power._watts = t_active_w
            t_power._last_time = t_read
            pending[0] = (t_write, last_read, target)
        else:
            # Ends before the next read completes: as on entry, with the
            # read one or more batches on.
            sim._now = started
            op.start_time = started
            source._head_sector = sector
            s_power._last_time = started
            target._head_sector = sector
            target._idle_since = started
            t_power._last_time = started
            pending[0] = (t_read, last_write, source)
        # Each timer's arms but the last were cancelled by the next: push
        # the last one's expiry, once.
        if s_timer is not None:
            s_timer.cancel()
            s_timer._event = sim._push(
                s_expiry, s_timer._fire, (), "timer", last_read + 1
            )
        if t_timer is not None and writes:
            t_timer.cancel()
            t_timer._event = sim._push(
                t_expiry, t_timer._fire, (), "timer", last_write + 1
            )
        return done

    def _batch_fits(
        self, op: DiskOp, time: float, head: Optional[Tuple[float, int, Any]]
    ) -> bool:
        """May the read ``op`` complete inline at ``time``, batch and all?

        Yes when it is not the last batch's read, the source serves nothing
        else and has no latent errors to surface, and every target could
        take its write at once and finish it before ``head``, the heap's
        next entry, and within ``run(until=)``.  Write times are bounded
        from above (a full-stroke seek unless head-contiguous), so the
        seek model isn't called.
        """
        source = self.source
        if (
            self._next_batch >= len(self._batches)
            or source._queues[0]
            or source._queues[1]
            or source._latent_errors
        ):
            return False
        until = self.sim._until
        nbytes = op.nbytes
        sector = op.sector
        for target in self.targets:
            queues = target._queues
            state = target.power._state
            if (
                target._in_service is not None
                or queues[0]
                or queues[1]
                or not (state is PowerState.IDLE or state is PowerState.ACTIVE)
            ):
                return False
            bound = nbytes / target._transfer_rate
            if sector != target._head_sector:
                bound += target._max_positioning
            if target.slowdown_factor != 1.0:
                bound *= target.slowdown_factor
            done = time + bound
            if done > until or (head is not None and done >= head[0]):
                return False
        return True

    def _unobserved(self) -> bool:
        """No tracer or op observer watches the chain's disks, and they
        are distinct."""
        disks = self._gate_disks
        for disk in disks:
            if disk._tracer is not None or disk._op_observer is not None:
                return False
        return len(set(disks)) == len(disks)

    def _hand_back(self, op: DiskOp) -> None:
        """Turn the stretch's pending completions into real events.

        Each keeps its reserved ``(time, seq)``; ``op`` becomes the first
        one's real pooled op, and further writes get their own.  A pending
        read keeps :meth:`_read_event`, so the chain may resume inline.
        """
        sim = self.sim
        pending = self._pending
        op._pooled = True
        op.submit_time = op.start_time
        op.finish_time = -1.0
        for index, (time, seq, disk) in enumerate(pending):
            real = op
            if index:
                real = acquire_op(
                    op.kind, op.sector, op.nbytes, Priority.BACKGROUND,
                    op.on_complete,
                )
                real.submit_time = real.start_time = op.start_time
                disk._in_service = real
            callback = (
                self._read_event if disk is self.source else disk._complete
            )
            sim._push(time, callback, (real,), disk._io_label, seq)
        pending.clear()

    def _finish(self) -> None:
        if self.done:
            return
        self.finished_at = self.sim.now
        self._detach()
        if self.on_complete is not None:
            self.on_complete(self)

    def _detach(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        if self.idle_gated:
            for disk in self._gate_disks:
                disk.remove_idle_listener(self._on_disk_idle)
