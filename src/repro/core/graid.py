"""GRAID — the centralized-logging baseline (Mao et al., MASCOTS 2008).

One extra dedicated log disk absorbs the second copy of every write while
all mirrored disks sleep in STANDBY.  When the log disk's occupancy reaches
the destage threshold, *all* mirrors are spun up and every stale stripe unit
is copied from its primary in parallel (Fig. 1 of the paper); the log is then
truncated and the mirrors spun back down.  This bursty alternation of
logging and destaging periods is what §II instruments (Fig. 2) and what RoLo
eliminates.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Set

from repro.core.base import Controller
from repro.core.destage import DestageProcess, coalesce_units
from repro.core.logspace import LogRegion
from repro.core.metrics import CycleWindow
from repro.disk.disk import Disk, OpKind, Priority
from repro.raid.request import IORequest

# Enum members as module constants: a class attribute lookup on an Enum
# costs several times a global's, and the per-request paths read them.
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_FOREGROUND = Priority.FOREGROUND


class _Mode(enum.Enum):
    LOGGING = "logging"
    DESTAGING = "destaging"


_LOGGING = _Mode.LOGGING
_DESTAGING = _Mode.DESTAGING


class GraidController(Controller):
    scheme_name = "GRAID"

    def _build_disks(self) -> None:
        n = self.config.n_pairs
        self.primaries: List[Disk] = [
            self._make_disk(f"P{i}") for i in range(n)
        ]
        self.mirrors: List[Disk] = [
            self._make_disk(f"M{i}", standby=True) for i in range(n)
        ]
        self.log_disk: Disk = self._make_disk("LOG")
        self.log_region = LogRegion(
            "graid-log", 0, self.config.graid_log_capacity_bytes
        )
        self._mode = _LOGGING
        self._dirty: List[Set[int]] = [set() for _ in range(n)]
        self._active_processes = 0
        self._processes: Dict[int, DestageProcess] = {}
        self._epoch = 0
        self._reclaim_limit = 0
        self._log_failed = False
        self._draining = False
        self._cycle = CycleWindow(
            logging_start=self.sim.now,
            energy_at_logging_start=0.0,
        )

    def disks_by_role(self) -> Dict[str, List[Disk]]:
        return {
            "primary": self.primaries,
            "mirror": self.mirrors,
            "log": [self.log_disk],
        }

    def log_regions(self) -> List[LogRegion]:
        return [self.log_region]

    def dirty_units_total(self) -> int:
        return sum(len(units) for units in self._dirty)

    def _destageable_dirty(self) -> int:
        """Dirty units on pairs that can actually destage right now."""
        return sum(
            len(self._dirty[pair])
            for pair in range(self.config.n_pairs)
            if not self._pair_degraded(pair)
        )

    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> None:
        segments = self.layout.map_extent(request.offset, request.nbytes)
        oracle = self._oracle
        degraded = self._degraded_pairs
        if not request.is_write:
            # note_read is a bound oracle method or the module-level no-op
            # (oracle-note elision); the degraded-pairs set keeps the
            # .failed property chain off the healthy read path.
            note_read = self._note_read
            primaries = self.primaries
            for seg in segments:
                pair = seg.pair
                if pair not in degraded:
                    source, read_kind = primaries[pair], "home"
                else:
                    primary = primaries[pair]
                    if not primary.failed:
                        source, read_kind = primary, "home"
                    else:
                        source, read_kind = (
                            self._read_source(pair),
                            "degraded",
                        )
                note_read(self, seg, source.name, read_kind)
                self._issue(
                    source,
                    _READ,
                    seg.disk_offset,
                    seg.nbytes,
                    request,
                )
            request.seal(self.sim._now)
            return

        # Primary copy always goes in place; segments on degraded pairs
        # write both surviving copies in place and bypass the log.
        healthy = []
        for seg in segments:
            if seg.pair in degraded:
                targets = self._write_targets(seg.pair)
                for disk in targets:
                    self._issue(
                        disk,
                        _WRITE,
                        seg.disk_offset,
                        seg.nbytes,
                        request,
                    )
                if oracle is not None:
                    oracle.note_segment_write(
                        self, seg, [d.name for d in targets]
                    )
            else:
                self._issue(
                    self.primaries[seg.pair],
                    _WRITE,
                    seg.disk_offset,
                    seg.nbytes,
                    request,
                )
                healthy.append(seg)
        if healthy:
            log_bytes = sum(seg.nbytes for seg in healthy)
            if not self._log_failed and self.log_region.fits(log_bytes):
                # Logging continues during a destage period too — the
                # headroom above the destage threshold exists precisely so
                # user writes never wait for mirrors to spin up.
                self._log_write(request, healthy, log_bytes)
            else:
                # Log full (or lost): second copy in place.  Destaging from
                # the primary afterwards is idempotent, so dirty state
                # needs no adjustment.
                for seg in healthy:
                    self._issue(
                        self.mirrors[seg.pair],
                        _WRITE,
                        seg.disk_offset,
                        seg.nbytes,
                        request,
                    )
                    if oracle is not None:
                        oracle.note_segment_write(
                            self,
                            seg,
                            [
                                self.primaries[seg.pair].name,
                                self.mirrors[seg.pair].name,
                            ],
                        )
        request.seal(self.sim._now)

    def _log_write(self, request: IORequest, segments, log_bytes: int) -> None:
        offset = self.log_region.append(log_bytes, segments, self._epoch)
        self.metrics.logged_bytes += log_bytes
        unit = self.layout.stripe_unit
        for seg in segments:
            self._dirty[seg.pair].add((seg.disk_offset // unit) * unit)
        if self._oracle is not None:
            for seg in segments:
                self._oracle.note_segment_write(
                    self,
                    seg,
                    [self.primaries[seg.pair].name, self.log_disk.name],
                )
        self._issue(
            self.log_disk,
            _WRITE,
            offset,
            log_bytes,
            request,
            _FOREGROUND,
            True,
        )
        if self.tracer is not None:
            self._trace_occupancy(self.log_region)
        threshold = self.config.destage_threshold * self.log_region.capacity
        if self._mode is _LOGGING and self.log_region.used >= threshold:
            self._begin_destage()

    # ------------------------------------------------------------------
    def _begin_destage(self) -> None:
        if self._mode is _DESTAGING:
            return
        self._mode = _DESTAGING
        self._epoch += 1
        self._reclaim_limit = self._epoch
        now = self.sim.now
        self._trace_instant(
            "destage",
            "centralized-begin",
            epoch=self._epoch,
            occupancy=self.log_region.occupancy,
        )
        self._cycle.destage_start = now
        self._cycle.energy_at_destage_start = self.total_energy_now()
        for mirror in self.mirrors:
            self._cancel_sleep(mirror)
            mirror.request_spin_up()
        self._active_processes = 0
        for pair in range(self.config.n_pairs):
            units = self._dirty[pair]
            if not units or self._pair_degraded(pair):
                # A degraded pair keeps its log copies live and rejoins
                # destaging once rebuilt.
                continue
            self._dirty[pair] = set()
            process = DestageProcess(
                self.sim,
                name=f"graid-destage-{pair}",
                source=self.primaries[pair],
                targets=[self.mirrors[pair]],
                batches=coalesce_units(
                    units,
                    self.config.stripe_unit,
                    self.config.destage_batch_bytes,
                ),
                unit_size=self.config.stripe_unit,
                idle_gated=False,
                idle_grace_s=0.0,
                on_complete=lambda p, pair=pair: self._process_done(pair, p),
            )
            self._active_processes += 1
            self._processes[pair] = process
            process.start()
        if self._active_processes == 0:
            self._end_destage()

    def _process_done(self, pair: int, process: DestageProcess) -> None:
        self.metrics.destaged_bytes += process.bytes_moved
        self._active_processes -= 1
        self._processes.pop(pair, None)
        if self.oracle is not None:
            self.oracle.note_destage(
                pair, process.completed_units(), [self.mirrors[pair].name]
            )
        if self.tracer is not None:
            self._trace_span(
                "destage",
                process.name,
                process.started_at,
                bytes_moved=process.bytes_moved,
            )
        if self._active_processes == 0:
            self._end_destage()

    def _end_destage(self) -> None:
        now = self.sim.now
        for pair in range(self.config.n_pairs):
            if self._pair_degraded(pair):
                # Live log copies of a degraded pair may be its only
                # surviving second copy — never reclaim them here.
                continue
            self.log_region.reclaim(pair, self._reclaim_limit)
        self._cycle.destage_end = now
        self._cycle.energy_at_destage_end = self.total_energy_now()
        self.metrics.cycles.append(self._cycle)
        self._trace_cycle(self._cycle)
        self.metrics.destage_cycles += 1
        self._cycle = CycleWindow(
            logging_start=now,
            energy_at_logging_start=self.total_energy_now(),
        )
        self._mode = _LOGGING
        for mirror in self.mirrors:
            self._sleep_when_quiet(mirror)
        # Writes that arrived during the destage may already have filled the
        # log past the threshold again.  Only re-trigger when there is work
        # a destage process can actually take on, otherwise a degraded pair
        # whose backlog must wait for its rebuild would loop forever.
        threshold = self.config.destage_threshold * self.log_region.capacity
        if self._destageable_dirty() and (
            self.log_region.used >= threshold
            or (self._draining and self.dirty_units_total())
        ):
            self._begin_destage()

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _on_disk_failed(self, disk: Disk, role: str, index: int) -> None:
        if role == "log":
            # Every logged second copy is gone; primaries still hold the
            # data, so restore redundancy by destaging everything now and
            # mirror in place until the log disk is rebuilt.
            self._log_failed = True
            self.log_region.reclaim_all()
            if self._mode is _LOGGING and self._destageable_dirty():
                self._begin_destage()
            return
        process = self._processes.pop(index, None)
        if process is not None and not process.done:
            completed = process.completed_units()
            remaining = process.remaining_units()
            process.abort()
            self._active_processes -= 1
            if completed and self.oracle is not None:
                self.oracle.note_destage(
                    index, completed, [self.mirrors[index].name]
                )
            self._dirty[index] |= set(remaining)
            if self._active_processes == 0 and self._mode is _DESTAGING:
                self._end_destage()

    def _replace_disk(self, old: Disk, new: Disk) -> None:
        if old is self.log_disk:
            # disks_by_role builds the log list on the fly, so the generic
            # in-list swap cannot reach it.
            self.log_disk = new
            return
        super()._replace_disk(old, new)

    def _on_rebuild_complete(self, old: Disk, new: Disk) -> None:
        role, index = self._locate(new)
        if role == "log":
            self._log_failed = False
            return
        if role == "mirror":
            # The rebuild copied the primary's full data region: nothing on
            # this pair is stale and its log copies are redundant.
            self._dirty[index].clear()
            self.log_region.reclaim(index, self._epoch + 1)
            if self._mode is _LOGGING:
                self._sleep_when_quiet(new)
            return
        # Primary rebuilt: its backlog destages at the next threshold (or
        # right away while draining).
        if (
            self._mode is _LOGGING
            and self._draining
            and self._destageable_dirty()
        ):
            self._begin_destage()

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Flush remaining dirty units (outside the measured window)."""
        self._draining = True
        if self._destageable_dirty() and self._mode is _LOGGING:
            self._begin_destage()
