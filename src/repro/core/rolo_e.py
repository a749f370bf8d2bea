"""RoLo-E: the energy-oriented flavor (paper §III-B3).

Only one mirrored pair spins at a time; it absorbs *both* copies of every
write into its logging space and caches popular read blocks there.  All
other disks — primaries included — sleep in STANDBY, so a read miss pays a
full disk spin-up (the source of RoLo-E's polarized response times, Table V).
When the on-duty logging space fills, every disk is spun up for one
centralized destage, the logger rotates to the next pair, and the rest of
the array goes back to sleep.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Set, Tuple

from repro.cache.lru import LRUCache
from repro.core.base import Controller
from repro.core.destage import DestageProcess, coalesce_units
from repro.core.logspace import LogRegion
from repro.core.metrics import CycleWindow
from repro.disk.disk import Disk, DiskOp, OpKind, Priority
from repro.raid.request import IORequest
from repro.sim.engine import Timer

# Enum members as module constants: a class attribute lookup on an Enum
# costs several times a global's, and the per-request paths read them.
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_FOREGROUND = Priority.FOREGROUND
_BACKGROUND = Priority.BACKGROUND


class _Mode(enum.Enum):
    LOGGING = "logging"
    #: Destage requested: the whole array is spinning up, but logging
    #: continues into the headroom above the destage threshold so writes
    #: never stall behind a spin-up.
    SPINNING = "spinning"
    DESTAGING = "destaging"


_LOGGING = _Mode.LOGGING
_SPINNING = _Mode.SPINNING
_DESTAGING = _Mode.DESTAGING


class RoloEController(Controller):
    scheme_name = "RoLo-E"

    def _build_disks(self) -> None:
        cfg = self.config
        n = cfg.n_pairs
        self._duty_pair = 0
        self.primaries: List[Disk] = [
            self._make_disk(f"P{i}", standby=i != self._duty_pair)
            for i in range(n)
        ]
        self.mirrors: List[Disk] = [
            self._make_disk(f"M{i}", standby=i != self._duty_pair)
            for i in range(n)
        ]
        self.primary_logs: List[LogRegion] = [
            LogRegion(f"P{i}-log", cfg.log_region_offset, cfg.free_space_bytes)
            for i in range(n)
        ]
        self.mirror_logs: List[LogRegion] = [
            LogRegion(f"M{i}-log", cfg.log_region_offset, cfg.free_space_bytes)
            for i in range(n)
        ]
        self._mode = _LOGGING
        self._dirty: List[Set[int]] = [set() for _ in range(n)]
        self._active_processes = 0
        self._processes: Dict[int, DestageProcess] = {}
        self._rr = 0
        self._draining = False
        cache_capacity = 0
        if cfg.read_cache:
            cache_capacity = int(
                cfg.read_cache_fraction
                * cfg.free_space_bytes
                // cfg.stripe_unit
            )
        #: (pair, unit) -> (log disk index tuple key, absolute offset, nbytes)
        self._cache: LRUCache[Tuple[int, int], Tuple[bool, int, int]] = (
            LRUCache(cache_capacity)
        )
        self._cycle = CycleWindow(
            logging_start=self.sim.now, energy_at_logging_start=0.0
        )
        self._sleep_timers: Dict[Disk, Timer] = {
            disk: self._sleep_timer(disk)
            for disk in self.primaries + self.mirrors
        }
        self._set_standby_timers()

    def disks_by_role(self) -> Dict[str, List[Disk]]:
        return {"primary": self.primaries, "mirror": self.mirrors}

    def log_regions(self) -> List[LogRegion]:
        return self.primary_logs + self.mirror_logs

    def dirty_units_total(self) -> int:
        return sum(len(s) for s in self._dirty)

    # ------------------------------------------------------------------
    # Opportunistic spin-down of read-miss-woken disks
    # ------------------------------------------------------------------
    def _is_on_duty(self, disk: Disk) -> bool:
        return disk in (
            self.primaries[self._duty_pair],
            self.mirrors[self._duty_pair],
        )

    def _sleep_timer(self, disk: Disk) -> Timer:
        return Timer(
            self.sim,
            self.config.standby_return_s,
            lambda: self._sleep_timer_fired(disk),
        )

    def _set_standby_timers(self) -> None:
        """Make each disk's sleep timer its standby timer (re-armed each
        time the disk drains to quiet) while it may send the disk back to
        STANDBY: never on duty, nor outside LOGGING.  While SPINNING the
        destage waits for the whole array to be up, so a disk that woke
        early must not go back down before the last one arrives.

        Call after every change of the mode, the duty pair or a disk.
        Clearing a disk's timer leaves a pending expiry to
        :meth:`_sleep_timer_fired`'s own check.
        """
        logging = self._mode is _LOGGING
        for disk in self.primaries + self.mirrors:
            disk.standby_timer = (
                self._sleep_timers[disk]
                if logging and not self._is_on_duty(disk)
                else None
            )

    def _sleep_timer_fired(self, disk: Disk) -> None:
        if self._mode is not _LOGGING or self._is_on_duty(disk):
            return
        disk.request_spin_down()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> None:
        if request.is_write:
            self._submit_write(request)
        else:
            self._submit_read(request)

    def _duty_disks(self) -> Tuple[Disk, Disk]:
        return self.primaries[self._duty_pair], self.mirrors[self._duty_pair]

    def _submit_write(self, request: IORequest) -> None:
        segments = self.layout.map_extent(request.offset, request.nbytes)
        oracle = self._oracle
        p_log = self.primary_logs[self._duty_pair]
        m_log = self.mirror_logs[self._duty_pair]
        p_disk, m_disk = self._duty_disks()
        can_log = (
            self._mode is not _DESTAGING
            and self._duty_pair not in self._degraded_pairs
            and p_log.fits(request.nbytes)
            and m_log.fits(request.nbytes)
        )
        if not can_log:
            # Destaging in progress, log full, or the duty pair lost a
            # disk: write in place to both surviving home copies (they are
            # up, or the submit wakes them).
            for seg in segments:
                targets = self._write_targets(seg.pair)
                for disk in targets:
                    self._issue(
                        disk, _WRITE,
                        seg.disk_offset, seg.nbytes, request,
                    )
                if oracle is not None:
                    oracle.note_segment_write(
                        self, seg, [d.name for d in targets]
                    )
            request.seal(self.sim._now)
            if self._mode is _LOGGING:
                self._begin_destage()
            return

        p_offset = p_log.append(request.nbytes, segments, 0)
        m_offset = m_log.append(request.nbytes, segments, 0)
        self.metrics.logged_bytes += 2 * request.nbytes
        self._issue(
            p_disk, _WRITE, p_offset, request.nbytes,
            request, _FOREGROUND, True,
        )
        self._issue(
            m_disk, _WRITE, m_offset, request.nbytes,
            request, _FOREGROUND, True,
        )
        unit = self.config.stripe_unit
        for seg in segments:
            self._dirty[seg.pair].add((seg.disk_offset // unit) * unit)
            if oracle is not None:
                oracle.note_segment_write(
                    self, seg, [p_disk.name, m_disk.name]
                )
        request.seal(self.sim._now)
        if self.tracer is not None:
            self._trace_occupancy(p_log)
            self._trace_occupancy(m_log)
        threshold = self.config.destage_threshold
        if self._mode is _LOGGING and (
            p_log.occupancy >= threshold
            or m_log.occupancy >= threshold
        ):
            self._begin_destage()

    def _submit_read(self, request: IORequest) -> None:
        segments = self.layout.map_extent(request.offset, request.nbytes)
        # note_read is a bound oracle method or the module-level no-op
        # (oracle-note elision); the degraded-pairs set keeps the .failed
        # property chains off the healthy read path.
        note_read = self._note_read
        degraded = self._degraded_pairs
        if self._mode is _DESTAGING:
            # Everything is spinning; serve in place.
            for seg in segments:
                pair = seg.pair
                if pair not in degraded:
                    source = self.primaries[pair]
                else:
                    primary = self.primaries[pair]
                    source = (
                        primary if not primary.failed
                        else self._read_source(pair)
                    )
                note_read(self, seg, source.name, "destaging")
                self._issue(
                    source,
                    _READ,
                    seg.disk_offset, seg.nbytes, request,
                )
            request.seal(self.sim._now)
            return
        p_disk, m_disk = self._duty_disks()
        duty_degraded = self._duty_pair in degraded
        for seg in segments:
            if self._segment_hit(seg):
                self.metrics.read_hits += 1
                if not duty_degraded:
                    disk = (
                        p_disk
                        if p_disk.queue_depth <= m_disk.queue_depth
                        else m_disk
                    )
                elif p_disk.failed:
                    disk = (
                        m_disk if not m_disk.failed
                        else self._read_source(seg.pair)
                    )
                else:
                    disk = p_disk
                note_read(self, seg, disk.name, "log-hit")
                self._issue(
                    disk, _READ, seg.disk_offset, seg.nbytes,
                    request,
                )
            else:
                self.metrics.read_misses += 1
                pair = seg.pair
                if pair not in degraded:
                    source, read_kind = self.primaries[pair], "home"
                else:
                    primary = self.primaries[pair]
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
                    seg.disk_offset, seg.nbytes, request,
                )
                self._cache_fill(seg)
        request.seal(self.sim._now)

    def _segment_hit(self, seg) -> bool:
        """A segment hits when every unit it spans is in the logging space
        (recently written) or in the popular-block cache."""
        if seg.pair == self._duty_pair:
            return True
        unit = self.config.stripe_unit
        first = (seg.disk_offset // unit) * unit
        last = ((seg.end_offset - 1) // unit) * unit
        dirty = self._dirty[seg.pair]
        for base in range(first, last + 1, unit):
            if base in dirty:
                continue
            if self._cache.get((seg.pair, base)) is not None:
                continue
            return False
        return True

    def _cache_fill(self, seg) -> None:
        """Replicate a missed segment's units into the logging space."""
        if self._cache.capacity == 0 or self._mode is not _LOGGING:
            return
        unit = self.config.stripe_unit
        self._rr += 1
        use_primary = self._rr % 2 == 0
        region = (
            self.primary_logs[self._duty_pair]
            if use_primary
            else self.mirror_logs[self._duty_pair]
        )
        disk = self._duty_disks()[0 if use_primary else 1]
        if disk.failed:
            return
        first = (seg.disk_offset // unit) * unit
        last = ((seg.end_offset - 1) // unit) * unit
        for base in range(first, last + 1, unit):
            key = (seg.pair, base)
            if key in self._cache or not region.fits(unit):
                continue
            offset = region.charge_cache(unit)
            if self.oracle is not None:
                self.oracle.note_cache_fill(seg.pair, base, [disk.name])
            evicted = self._cache.put(key, (use_primary, offset, unit))
            if evicted is not None:
                _, (ev_primary, ev_offset, ev_nbytes) = evicted
                ev_region = (
                    self.primary_logs[self._duty_pair]
                    if ev_primary
                    else self.mirror_logs[self._duty_pair]
                )
                ev_region.release_cache(ev_offset, ev_nbytes)
            disk.submit(
                DiskOp(
                    _WRITE,
                    offset // 512,
                    unit,
                    priority=_BACKGROUND,
                    sequential_hint=True,
                    # Fire-and-forget, so no completion callback carries
                    # the owner; the tag names the span-layer culprit.
                    tag="rolo-e:cache-fill",
                )
            )

    # ------------------------------------------------------------------
    # Centralized destage + rotation
    # ------------------------------------------------------------------
    def _begin_destage(self) -> None:
        if self._mode is not _LOGGING:
            return
        self._mode = _SPINNING
        self._set_standby_timers()
        now = self.sim.now
        self._trace_instant(
            "destage", "centralized-begin", duty_pair=self._duty_pair
        )
        self._cycle.destage_start = now
        self._cycle.energy_at_destage_start = self.total_energy_now()
        for disk in self.primaries + self.mirrors:
            self._sleep_timers[disk].cancel()
            self._cancel_sleep(disk)
            disk.request_spin_up()
        # Wait until the whole array is spinning, then snapshot + destage.
        # Logging continues into the headroom above the destage threshold
        # during this window, so the snapshot also covers writes that
        # arrived while the array was waking.
        self.sim.poll(
            0.5, self._spun_up, self._start_destage_processes,
            label="rolo-e:poll",
        )

    def _spun_up(self) -> bool:
        return all(
            d.state.spun_up
            for d in self.primaries + self.mirrors
            if not d.failed
        )

    def _start_destage_processes(self) -> None:
        self._mode = _DESTAGING
        self._set_standby_timers()
        p_disk, m_disk = self._duty_disks()
        self._active_processes = 0
        for pair in range(self.config.n_pairs):
            units = self._dirty[pair]
            if not units:
                continue
            self._dirty[pair] = set()
            self._rr += 1
            if pair == self._duty_pair:
                # Destaging the duty pair itself: copy the mirror's log
                # copy into BOTH home locations — the logging space is
                # reset below, so a home copy left stale here would leave
                # the pair with a single live copy.
                source = m_disk if not m_disk.failed else p_disk
            else:
                source = p_disk if self._rr % 2 == 0 else m_disk
                if source.failed:
                    source = m_disk if source is p_disk else p_disk
            targets = self._write_targets(pair)
            process = DestageProcess(
                self.sim,
                name=f"rolo-e-destage-{pair}",
                source=source,
                targets=targets,
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
                pair,
                process.completed_units(),
                [t.name for t in process.targets],
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
        if self.dirty_units_total() == 0:
            for region in self.primary_logs + self.mirror_logs:
                region.reset()
            self._cache.clear()
        # else: a degraded pair's destage was aborted and its only second
        # copies still live in the logging space — keep every region intact
        # until a later destage empties the backlog.
        self._cycle.destage_end = now
        self._cycle.energy_at_destage_end = self.total_energy_now()
        self.metrics.cycles.append(self._cycle)
        self._trace_cycle(self._cycle)
        self.metrics.destage_cycles += 1
        self._cycle = CycleWindow(
            logging_start=now,
            energy_at_logging_start=self.total_energy_now(),
        )
        previous = self._duty_pair
        n = self.config.n_pairs
        for step in range(1, n + 1):
            candidate = (previous + step) % n
            if not self._pair_degraded(candidate):
                break
        self._duty_pair = candidate
        self.metrics.rotations += 1
        self._trace_instant(
            "rotation",
            "hand-off",
            from_pair=previous,
            to_pair=self._duty_pair,
        )
        self._mode = _LOGGING
        self._set_standby_timers()
        duty = (self.primaries[self._duty_pair], self.mirrors[self._duty_pair])
        for disk in self.primaries + self.mirrors:
            if disk not in duty:
                self._sleep_when_quiet(disk)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _on_disk_failed(self, disk: Disk, role: str, index: int) -> None:
        timer = self._sleep_timers.get(disk)
        if timer is not None:
            timer.cancel()
        if self._mode is _DESTAGING:
            for pair, process in list(sorted(self._processes.items())):
                if disk is not process.source and disk not in process.targets:
                    continue
                completed = process.completed_units()
                remaining = process.remaining_units()
                process.abort()
                del self._processes[pair]
                self._active_processes -= 1
                if completed and self.oracle is not None:
                    self.oracle.note_destage(
                        pair,
                        completed,
                        [t.name for t in process.targets],
                    )
                self._dirty[pair] |= set(remaining)
            if self._active_processes == 0:
                self._end_destage()
            return
        if self._is_on_duty(disk) and self._mode is _LOGGING:
            # The surviving duty disk still holds a full set of logged
            # copies (RoLo-E double-logs); flush them home before more
            # state accumulates on a single spindle.
            self._begin_destage()

    def _on_rebuild_complete(self, old: Disk, new: Disk) -> None:
        timer = self._sleep_timers.pop(old, None)
        if timer is not None:
            timer.cancel()
        self._sleep_timers[new] = self._sleep_timer(new)
        self._set_standby_timers()
        if (
            self._draining
            and self._mode is _LOGGING
            and self.dirty_units_total()
        ):
            self._begin_destage()
        elif not self._is_on_duty(new) and self._mode is _LOGGING:
            self._sleep_when_quiet(new)

    def drain(self) -> None:
        self._draining = True
        if self.dirty_units_total() and self._mode is _LOGGING:
            self._begin_destage()
