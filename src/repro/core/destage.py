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

A centralized chain with one target (every rebuild, GRAID's destage
and the RoLo drain) *fast-forwards* while it runs alone: its reads carry a
``dispatch`` hook, so when one completes, :meth:`DestageProcess._solo`
copies whole batches inline, in local variables, without pooled ops,
heap events or ``Disk.submit``, until another entry of the heap comes
first, and leaves its one pending completion to the event path at its
reserved ``(time, seq)``.  Interleaved chains, RoLo-E's two-target
chains and every write run on the event path.  The outputs are exactly
those of the event path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heappush
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.disk.disk import Disk, DiskOp, OpKind, Priority, acquire_op
from repro.disk.power import PowerState
from repro.sim.engine import Simulator, Timer

# Enum members as module constants: a class attribute lookup on an Enum
# costs several times a global's, and the chains read them per op.
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_BACKGROUND = Priority.BACKGROUND
_IDLE = PowerState.IDLE
_ACTIVE = PowerState.ACTIVE


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


def _chain_event(disk: Disk, op: DiskOp) -> None:
    """The completion event of a lone centralized chain's read ``op`` on
    ``disk``: :meth:`DestageProcess._solo` takes it, or the event path
    does."""
    if not op.on_complete.__self__._solo(op):
        disk._complete(op)


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
        #: Batches whose write completed inline (see :meth:`_solo`),
        #: issuing the next batch's read there.  Each skipped two
        #: ``Disk.submit`` calls: its write's and the next batch's read's.
        self.inline_batches = 0
        #: The hook a centralized single-target chain's reads carry.
        self._dispatch = (
            _chain_event if not idle_gated and len(self.targets) == 1 else None
        )
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
        op = acquire_op(
            _READ, offset // 512, nbytes, _BACKGROUND, self._read_done
        )
        op.dispatch = self._dispatch
        self.source.submit(op)

    def _read_done(self, op: DiskOp) -> None:
        if self.aborted:
            return
        sector, nbytes = op.sector, op.nbytes
        self._writes_outstanding = len(self.targets)
        for target in self.targets:
            target.submit(
                acquire_op(
                    _WRITE, sector, nbytes, _BACKGROUND, self._write_done
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
    # Fast-forward: copy ops completed without the event path.
    # ------------------------------------------------------------------
    def _solo(self, op: DiskOp) -> int:
        """Copy whole batches inline from the read ``op``, completing now.

        The run loop has just dispatched ``op``'s completion.  While the
        chain's completions come before the heap's next live entry, every
        batch is the same two transfers, each a seek or not, so the loop
        holds both disks' counters, power integration and idle-gap buckets
        in locals and does only the event path's float operations, in its
        order: the completion clock ``time + service`` with ``Disk._start``'s
        service (``nbytes / _transfer_rate`` on the head's sector, else
        ``service_time``, × ``slowdown_factor``), each disk's busy time,
        ``energy_joules += watts * elapsed`` and ``state_durations`` adds,
        and the bucket ``Histogram.add`` would pick (cached: steady gaps
        repeat).  Integer counters, seqs, ``events_processed`` and the
        stride countdown advance in bulk when it ends; no foreign code runs
        inside it.  Its one pending completion then becomes a real event at
        its reserved ``(time, seq)``: a read comes back here, a write goes
        to the target's ``_complete``.  A disk's standby timer re-arms at
        each of its idles: each virtual idle takes one seq after the op it
        starts, and the last arm's expiry is pushed once, at the end.

        Refused first, before any set-up: a read whose write could not end
        before the heap's head, since the write takes at least its transfer
        time ``nbytes / _transfer_rate`` (seeks and slowdowns only add).
        Entry: the chain is not aborted; the source serves FCFS, has
        nothing queued and no latent errors; neither disk has an idle
        listener, a tracer or an op observer, and the two are distinct; the
        target is IDLE with nothing in service or queued; neither disk was
        touched since the read started; and the stride countdown stands at
        two or more.  A batch is taken only while its read is not the last
        batch's.  The loop ends before a batch whose write would not
        complete strictly before the heap's next live entry but the standby
        timers' (a tie goes to that entry: its seq is older) or would
        complete past ``run(until=)``, before a completion not strictly
        earlier than a standby timer's pending expiry, and before the
        completion that would bring the stride countdown to zero.  Returns
        the completions it took, ``op``'s included; 0, having changed
        nothing, when it takes none.
        """
        sim = self.sim
        target = self.targets[0]
        heap = sim._heap
        if heap and heap[0][0] < sim._now + op.nbytes / target._transfer_rate:
            return 0
        source = self.source
        started = op.start_time  # the read's start
        s_power = source.power
        t_power = target.power
        if (
            self.aborted
            or source._queues[0]
            or source._queues[1]
            or source._latent_errors
            or not source._fcfs
            or source._idle_listeners
            or target._idle_listeners
            or target._in_service is not None
            or target._queues[0]
            or target._queues[1]
            or t_power._state is not _IDLE
            or target._idle_since != started
            or t_power._last_time != started
            or s_power._last_time != started
            or source is target
            or source._tracer is not None
            or source._op_observer is not None
            or target._tracer is not None
            or target._op_observer is not None
        ):
            return 0
        batches = self._batches
        index = self._next_batch
        n_batches = len(batches)
        # Budget: the completions up to the stride point, this read's
        # included; without a stride, more than the chain has.
        stride = sim._stride_fn
        budget = 2 * n_batches
        if stride is not None:
            # The stride fires before the countdown's last event.
            budget = sim._stride_left
            if budget < 2:
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
                s_expiry = s_timer._event[0]
        if t_timer is not None:
            t_interval = t_timer.interval
            if t_timer.armed:
                own += (t_timer._event,)
                t_expiry = t_timer._event[0]
        # A write must complete before ``limit``: the heap's next live
        # entry but the timers' own, or just past ``run(until=)``.
        limit = math.nextafter(sim._until, math.inf)
        if heap:
            head = sim._head_except(own)
            if head is not None and head[0] < limit:
                limit = head[0]
        t_read = sim._now
        sector = op.sector
        nbytes = op.nbytes
        s_rate = source._transfer_rate
        t_rate = target._transfer_rate
        s_slow = source.slowdown_factor
        t_slow = target.slowdown_factor
        s_seek = source._service_time
        t_seek = target._service_time
        # Disk end sectors are start + whole sectors: ``step`` is the
        # sector count of a ``size``-byte batch, whose transfer-only
        # service times are ``read_x`` and ``write_x``.
        end_sector = source._end_sector
        size = nbytes
        step = end_sector(0, size)
        read_x = size / s_rate
        if s_slow != 1.0:
            read_x *= s_slow
        write_x = size / t_rate
        if t_slow != 1.0:
            write_x *= t_slow
        t_head = target._head_sector
        if sector == t_head:
            write_s = write_x
        else:
            write_s = t_seek(t_head, sector, nbytes)
            if t_slow != 1.0:
                write_s *= t_slow
        s_durations = s_power.state_durations
        t_durations = t_power.state_durations
        s_energy = s_power.energy_joules
        t_energy = t_power.energy_joules
        s_active = s_durations[_ACTIVE]
        s_idle = s_durations[_IDLE]
        t_active = t_durations[_ACTIVE]
        t_idle = t_durations[_IDLE]
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
            end = sector + step
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
            offset, nbytes = batches[index]
            sector = offset // 512
            if nbytes != size:
                size = nbytes
                step = end_sector(0, size)
                read_x = size / s_rate
                if s_slow != 1.0:
                    read_x *= s_slow
                write_x = size / t_rate
                if t_slow != 1.0:
                    write_x *= t_slow
            if sector == end:
                read_s = read_x
                write_s = write_x
            else:
                read_s = s_seek(end, sector, nbytes)
                if s_slow != 1.0:
                    read_s *= s_slow
                write_s = t_seek(end, sector, nbytes)
                if t_slow != 1.0:
                    write_s *= t_slow
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
            started = t_write
            t_read = t_write + read_s
            left -= 1
            if not left:
                break
        done = budget - left
        if not done:
            return 0
        writes = done // 2  # a block starts with a read and its write
        reads = done - writes
        # The run loop counted this read's completion.
        sim.events_processed += done - 1
        if stride is not None:
            sim._stride_left -= done - 1
        first = self._next_batch - 1  # the entering read's batch
        sizes = [size for _, size in batches[first:first + reads]]
        s_bytes = sum(sizes)
        t_bytes = s_bytes - sizes[-1] if reads > writes else s_bytes
        s_power.energy_joules = s_energy
        t_power.energy_joules = t_energy
        s_durations[_ACTIVE] = s_active
        s_durations[_IDLE] = s_idle
        t_durations[_ACTIVE] = t_active
        t_durations[_IDLE] = t_idle
        source.busy_time = s_busy
        target.busy_time = t_busy
        s_hist.counts[s_bucket] += s_hits
        s_hist.count += s_hits
        t_hist.counts[t_bucket] += t_hits
        t_hist.count += t_hits
        source.ops_completed += reads
        source.bytes_transferred += s_bytes
        source.background_ops += reads
        target.ops_completed += writes
        target.bytes_transferred += t_bytes
        target.background_ops += writes
        self._next_batch = index
        self.inline_batches += writes
        self.bytes_moved += t_bytes
        # Seqs: each completion's op start, then its disk's timer arm.
        read_seqs = 1 if s_timer is None else 2
        write_seqs = 1 if t_timer is None else 2
        base = sim._seq
        sim._seq = base + reads * read_seqs + writes * write_seqs
        last_read = base + writes * (read_seqs + write_seqs)
        if reads == writes:
            last_read -= read_seqs + write_seqs
        last_write = base + writes * read_seqs + (writes - 1) * write_seqs
        # Each timer's arms but the last were cancelled by the next: push
        # the last one's expiry, once.
        if s_timer is not None:
            s_timer.cancel()
            s_timer._event = entry = [
                s_expiry, last_read + 1, s_timer._fire, ()
            ]
            heappush(heap, entry)
        if t_timer is not None:
            t_timer.cancel()
            t_timer._event = entry = [
                t_expiry, last_write + 1, t_timer._fire, ()
            ]
            heappush(heap, entry)
        op.sector = sector
        op.nbytes = nbytes
        # Heads stand at the end of each disk's last completed batch.
        source._head_sector = end
        if reads > writes:
            # Ends before the write completes: the target serves it.
            offset, size = batches[index - 2]
            target._head_sector = end_sector(offset // 512, size)
            sim._now = t_read
            op.kind = _WRITE
            op.on_complete = self._write_done
            op.submit_time = op.start_time = t_read
            self._writes_outstanding = 1
            source._in_service = None
            source._idle_since = t_read
            s_power._state = _IDLE
            s_power._watts = s_idle_w
            s_power._last_time = t_read
            target._in_service = op
            target._idle_since = -1.0
            t_power._state = _ACTIVE
            t_power._watts = t_active_w
            t_power._last_time = t_read
            heappush(heap, [t_write, last_read, target._complete, (op,)])
        else:
            # Ends before the next read completes: as on entry, with the
            # read one or more batches on.
            target._head_sector = end
            sim._now = started
            op.submit_time = op.start_time = started
            s_power._last_time = started
            target._idle_since = started
            t_power._last_time = started
            heappush(heap, [t_read, last_write, _chain_event, (source, op)])
        return done

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
