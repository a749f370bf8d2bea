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
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.disk.disk import Disk, DiskOp, OpKind, Priority, acquire_op
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
    append = batches.append
    for run in runs:
        offset, nbytes = run
        if nbytes > step:
            end = offset + nbytes
            while end - offset > step:
                append((offset, step))
                offset += step
            run = (offset, end - offset)
        append(run)
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
        self.source.submit(
            acquire_op(
                OpKind.READ, offset // 512, nbytes, Priority.BACKGROUND,
                self._read_done,
            )
        )

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
