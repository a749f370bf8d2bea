"""Shared machinery of RoLo-P and RoLo-R (rotated logging + decentralized
destaging, paper §III-A/§III-B).

Both flavors keep every primary disk ACTIVE/IDLE, rotate the on-duty
logger(s) through the mirrors' free space, and trigger an idle-gated
destage process for the pair that just came on duty.  The only difference
is the number of log copies: RoLo-P appends the second copy to the on-duty
mirror, RoLo-R additionally appends a third copy to the on-duty pair's
primary log region (``log_to_primary_too``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.base import Controller
from repro.core.destage import DestageProcess, coalesce_units
from repro.core.logspace import LogRegion
from repro.core.metrics import CycleWindow
from repro.core.rotation import RotationPolicy
from repro.disk.disk import Disk, OpKind, Priority
from repro.disk.power import PowerState
from repro.raid.request import IORequest

# Enum members as module constants: a class attribute lookup on an Enum
# costs several times a global's, and the per-request paths read them.
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_FOREGROUND = Priority.FOREGROUND
_ACTIVE = PowerState.ACTIVE
_IDLE = PowerState.IDLE


class RotatedLoggingController(Controller):
    """Base class implementing rotated logging with decentralized destage."""

    #: RoLo-R overrides this to mirror each log append onto the primary.
    log_to_primary_too = False

    # ------------------------------------------------------------------
    def _build_disks(self) -> None:
        cfg = self.config
        n = cfg.n_pairs
        self.primaries: List[Disk] = [self._make_disk(f"P{i}") for i in range(n)]
        self.mirrors: List[Disk] = [
            self._make_disk(f"M{i}", standby=i >= cfg.n_on_duty)
            for i in range(n)
        ]
        self.mirror_logs: List[LogRegion] = [
            LogRegion(f"M{i}-log", cfg.log_region_offset, cfg.free_space_bytes)
            for i in range(n)
        ]
        self.primary_logs: List[LogRegion] = [
            LogRegion(f"P{i}-log", cfg.log_region_offset, cfg.free_space_bytes)
            for i in range(n)
        ]
        self._on_duty: List[int] = list(range(cfg.n_on_duty))
        self._previous_duty: List[Optional[int]] = [None] * cfg.n_on_duty
        self._duty_rr = 0
        self._epoch = 0
        #: Epoch at which each slot's current logging period started.
        self._slot_started: List[float] = [self.sim.now] * cfg.n_on_duty
        self._dirty: List[Set[int]] = [set() for _ in range(n)]
        self._pending_destage: List[Set[int]] = [set() for _ in range(n)]
        self._destage_epoch: List[int] = [0] * n
        self._active_process: List[Optional[DestageProcess]] = [None] * n
        self._deactivated = False
        self._draining = False
        self._prewoken = False
        self._policy = RotationPolicy(
            n, cfg.rotate_threshold, self._logger_occupancy
        )

    def disks_by_role(self) -> Dict[str, List[Disk]]:
        return {"primary": self.primaries, "mirror": self.mirrors}

    def log_regions(self) -> List[LogRegion]:
        if self.log_to_primary_too:
            return self.mirror_logs + self.primary_logs
        return list(self.mirror_logs)

    def dirty_units_total(self) -> int:
        total = sum(len(s) for s in self._dirty)
        total += sum(len(s) for s in self._pending_destage)
        for process in self._active_process:
            if process is not None and not process.done:
                total += process.remaining_batches + 1
        return total

    def _logger_occupancy(self, index: int) -> float:
        occupancy = self.mirror_logs[index].occupancy
        if self.log_to_primary_too:
            occupancy = max(occupancy, self.primary_logs[index].occupancy)
        return occupancy

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> None:
        segments = self.layout.map_extent(request.offset, request.nbytes)
        oracle = self._oracle
        degraded = self._degraded_pairs
        if not request.is_write:
            # note_read is a bound oracle method or the module-level no-op
            # (oracle-note elision); the degraded-pairs set skips the
            # .failed property chain entirely for healthy pairs.
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

        # Segments on degraded pairs bypass logging entirely: both
        # surviving copies (plus any rebuild replacement) are written in
        # place, so the pair never depends on the logging service while a
        # disk is down.  Healthy segments take the normal logged path.
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
        if not healthy:
            request.seal(self.sim._now)
            return
        if self._deactivated:
            # RoLo de-activated (§III-E): mirror copies go in place.
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
            return

        log_bytes = sum(seg.nbytes for seg in healthy)
        slot = self._duty_rr % len(self._on_duty)
        self._duty_rr += 1
        target = self._append_target(slot, log_bytes)
        if target is None:
            # Nowhere to log this request; fall back to in-place mirroring.
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
            return

        m_log = self.mirror_logs[target]
        offset = m_log.append(log_bytes, healthy, self._epoch)
        self.metrics.logged_bytes += log_bytes
        self._issue(
            self.mirrors[target],
            _WRITE,
            offset,
            log_bytes,
            request,
            _FOREGROUND,
            True,
        )
        if self.log_to_primary_too:
            p_log = self.primary_logs[target]
            p_offset = p_log.append(log_bytes, healthy, self._epoch)
            self._issue(
                self.primaries[target],
                _WRITE,
                p_offset,
                log_bytes,
                request,
                _FOREGROUND,
                True,
            )
        unit = self.layout.stripe_unit
        for seg in healthy:
            self._dirty[seg.pair].add((seg.disk_offset // unit) * unit)
        if oracle is not None:
            copies = [self.mirrors[target].name]
            if self.log_to_primary_too:
                copies.append(self.primaries[target].name)
            for seg in healthy:
                oracle.note_segment_write(
                    self, seg, [self.primaries[seg.pair].name] + copies
                )
        request.seal(self.sim._now)

        if self.tracer is not None:
            self._trace_occupancy(m_log)
            if self.log_to_primary_too:
                self._trace_occupancy(p_log)

        occupancy = m_log.occupancy
        if self.log_to_primary_too:
            occupancy = max(occupancy, p_log.occupancy)
        if occupancy >= self.config.rotate_threshold:
            duty_slot = self._slot_of(target)
            if duty_slot is not None:
                self._rotate(duty_slot)
        elif occupancy >= (
            self.config.prewake_fraction * self.config.rotate_threshold
        ):
            self._prewake(target)

    def _rotation_excluded(self) -> Set[int]:
        """Mirror indexes that cannot (or must not) become the logger:
        the current duty set, failed mirrors, and — when the scheme keeps
        a third copy on the duty primary — pairs whose primary is down."""
        excluded = set(self._on_duty)
        for index in range(self.config.n_pairs):
            if self.mirrors[index].failed or (
                self.log_to_primary_too and self.primaries[index].failed
            ):
                excluded.add(index)
        return excluded

    def _prewake(self, current: int) -> None:
        """Spin up the next rotation candidate ahead of need."""
        if self._prewoken:
            return
        candidate = self._policy.peek_next(
            current, excluded=self._rotation_excluded()
        )
        if candidate is None:
            return
        self._prewoken = True
        self._cancel_sleep(self.mirrors[candidate])
        self.mirrors[candidate].request_spin_up()

    def _slot_of(self, mirror_index: int) -> Optional[int]:
        for slot, index in enumerate(self._on_duty):
            if index == mirror_index:
                return slot
        return None

    def _log_target_ok(self, index: int, nbytes: int) -> bool:
        """Can mirror ``index`` absorb a log append of ``nbytes``?"""
        if not self.mirror_logs[index].fits(nbytes) or (
            self.log_to_primary_too
            and not self.primary_logs[index].fits(nbytes)
        ):
            return False
        # Only a degraded pair can have a failed disk.
        return index not in self._degraded_pairs or not (
            self.mirrors[index].failed
            or (self.log_to_primary_too and self.primaries[index].failed)
        )

    def _append_target(self, slot: int, nbytes: int) -> Optional[int]:
        """Mirror index that should receive this append.

        While the newly rotated-to disk is still spinning up, appends stay
        on the previous on-duty disk as long as it has room, so rotation
        does not stall foreground writes behind a spin-up.  Failed disks
        are never valid targets.
        """
        current = self._on_duty[slot]
        previous = self._previous_duty[slot]
        if previous is not None:
            # ``state.spun_up`` of both mirrors, read off their accountants.
            state = self.mirrors[current].power._state
            if state is not _ACTIVE and state is not _IDLE:
                state = self.mirrors[previous].power._state
                if (state is _ACTIVE or state is _IDLE) and (
                    self._log_target_ok(previous, nbytes)
                ):
                    return previous
        if self._log_target_ok(current, nbytes):
            return current
        if previous is not None and self._log_target_ok(previous, nbytes):
            return previous
        return None

    # ------------------------------------------------------------------
    # Rotation + decentralized destage
    # ------------------------------------------------------------------
    def _rotate(self, slot: int) -> None:
        current = self._on_duty[slot]
        candidate = self._policy.next_logger(
            current, excluded=self._rotation_excluded()
        )
        if candidate is None:
            self._deactivate()
            return
        now = self.sim.now
        self._epoch += 1
        self.metrics.rotations += 1
        self._trace_instant(
            "rotation",
            "hand-off",
            slot=slot,
            from_mirror=current,
            to_mirror=candidate,
            epoch=self._epoch,
        )
        self._prewoken = False
        self._previous_duty[slot] = current
        self._on_duty[slot] = candidate
        self._cancel_sleep(self.mirrors[candidate])
        self.mirrors[candidate].request_spin_up()
        window = CycleWindow(
            logging_start=self._slot_started[slot],
            destage_start=now,
            energy_at_logging_start=0.0,
            energy_at_destage_start=self.total_energy_now(),
        )
        self._slot_started[slot] = now
        self._start_destage_for(candidate, window)
        # The previous on-duty disk goes back to sleep once its queued log
        # appends drain — unless it is still the target of a running
        # destage process.
        if self._active_process[current] is None:
            self._sleep_when_quiet(self.mirrors[current])

    def _start_destage_for(
        self, pair: int, window: Optional[CycleWindow]
    ) -> None:
        units = self._dirty[pair]
        self._dirty[pair] = set()
        if self._active_process[pair] is not None:
            # Destage for this pair is still running from an earlier duty
            # tour; queue the new snapshot behind it.
            self._pending_destage[pair] |= units
            return
        self._pending_destage[pair] |= units
        self._launch_process(pair, window)

    def _launch_process(
        self, pair: int, window: Optional[CycleWindow]
    ) -> None:
        units = self._pending_destage[pair]
        self._pending_destage[pair] = set()
        # Normal rotations increment the epoch *before* snapshotting, so
        # everything this process covers was logged in earlier epochs.  A
        # drain flush also covers current-epoch writes, so its reclaim
        # boundary must include the current epoch.
        epoch_limit = self._epoch + 1 if self._draining else self._epoch
        if self._pair_degraded(pair):
            # The pair cannot destage (source or target is down) and its
            # log copies must stay live; everything waits for the rebuild.
            self._pending_destage[pair] = units
            if window is not None:
                window.destage_end = self.sim.now
                window.energy_at_destage_end = self.total_energy_now()
                self.metrics.cycles.append(window)
                self._trace_cycle(window)
            return
        if not units:
            # Nothing to destage: the pair's older log space is already
            # reclaimable.
            self._reclaim(pair, epoch_limit)
            if window is not None:
                window.destage_end = self.sim.now
                window.energy_at_destage_end = self.total_energy_now()
                self.metrics.cycles.append(window)
                self._trace_cycle(window)
            return
        process = DestageProcess(
            self.sim,
            name=f"{self.scheme_name}-destage-{pair}",
            source=self.primaries[pair],
            targets=[self.mirrors[pair]],
            batches=coalesce_units(
                units, self.config.stripe_unit, self.config.destage_batch_bytes
            ),
            unit_size=self.config.stripe_unit,
            idle_gated=not self._draining,
            idle_grace_s=self.config.idle_grace_s,
            on_complete=lambda p, pair=pair, window=window, limit=epoch_limit: (
                self._process_done(pair, p, window, limit)
            ),
        )
        self._active_process[pair] = process
        self._cancel_sleep(self.mirrors[pair])
        process.start()

    def _process_done(
        self,
        pair: int,
        process: DestageProcess,
        window: Optional[CycleWindow],
        epoch_limit: int,
    ) -> None:
        self.metrics.destaged_bytes += process.bytes_moved
        self.metrics.destage_cycles += 1
        self._active_process[pair] = None
        if self.oracle is not None:
            self.oracle.note_destage(
                pair, process.completed_units(), [self.mirrors[pair].name]
            )
        if self.tracer is not None:
            self._trace_span(
                "destage",
                process.name,
                process.started_at,
                pair=pair,
                bytes_moved=process.bytes_moved,
            )
        self._reclaim(pair, epoch_limit)
        if window is not None:
            window.destage_end = self.sim.now
            window.energy_at_destage_end = self.total_energy_now()
            self.metrics.cycles.append(window)
            self._trace_cycle(window)
        if self._pending_destage[pair] or (
            self._draining and self._dirty[pair]
        ):
            if self._draining:
                self._pending_destage[pair] |= self._dirty[pair]
                self._dirty[pair] = set()
            self._launch_process(pair, None)
            return
        if self._deactivated:
            self._try_reactivate()
        # If this mirror is no longer on duty it can sleep again.
        if pair not in self._on_duty:
            self._sleep_when_quiet(self.mirrors[pair])

    def _reclaim(self, pair: int, epoch_limit: int) -> None:
        """Proactively reclaim the pair's stale log space everywhere."""
        for region in self.mirror_logs:
            region.reclaim(pair, epoch_limit)
        if self.log_to_primary_too:
            for region in self.primary_logs:
                region.reclaim(pair, epoch_limit)

    # ------------------------------------------------------------------
    # Fault handling (§III-D: logging service continuity)
    # ------------------------------------------------------------------
    def _handoff_duty(self, index: int) -> bool:
        """Hand the logging duty held by mirror ``index`` to the next
        healthy off-duty candidate.  Returns False when no candidate is
        left (the caller falls back to deactivation).  Idempotent: a
        mirror that is no longer on duty needs no hand-off.
        """
        slot = self._slot_of(index)
        if slot is None:
            return True
        candidate = self._policy.peek_next(
            index, excluded=self._rotation_excluded()
        )
        if candidate is None:
            return False
        self._on_duty[slot] = candidate
        self._previous_duty[slot] = None
        self._cancel_sleep(self.mirrors[candidate])
        self.mirrors[candidate].request_spin_up()
        self.metrics.rotations += 1
        self._trace_instant(
            "rotation",
            "duty-handoff",
            slot=slot,
            from_mirror=index,
            to_mirror=candidate,
        )
        return True

    def _on_disk_failed(self, disk: Disk, role: str, index: int) -> None:
        # Stop the pair's destage: its source or target just died.  Units
        # already copied in full batches are safe; the rest wait for the
        # rebuild (their log copies stay live because reclaim only runs on
        # process completion).
        process = self._active_process[index]
        if process is not None and not process.done:
            completed = process.completed_units()
            remaining = process.remaining_units()
            process.abort()
            self._active_process[index] = None
            if completed and self.oracle is not None:
                self.oracle.note_destage(
                    index, completed, [self.mirrors[index].name]
                )
            self._pending_destage[index] |= set(remaining)
        # A failed on-duty logger (or, for RoLo-R, a failed duty primary
        # holding third copies) hands the logging service off immediately.
        needs_handoff = role == "mirror" or (
            role == "primary" and self.log_to_primary_too
        )
        if needs_handoff and not self._handoff_duty(index):
            self._deactivate()

    def _on_rebuild_complete(self, old: Disk, new: Disk) -> None:
        role, index = self._locate(new)
        if role == "mirror":
            # The rebuild streamed the primary's full data region onto the
            # replacement, so nothing is stale any more; the pair's log
            # copies are redundant and its backlog is moot.
            self._dirty[index].clear()
            self._pending_destage[index].clear()
            self._reclaim(index, self._epoch + 1)
            if index not in self._on_duty:
                self._sleep_when_quiet(new)
            return
        # Primary rebuilt (from its mirror plus live log copies): resume
        # the destage backlog that waited out the outage.
        if self._draining:
            self._pending_destage[index] |= self._dirty[index]
            self._dirty[index] = set()
        if (
            self._active_process[index] is None
            and self._pending_destage[index]
        ):
            self._launch_process(index, None)

    # ------------------------------------------------------------------
    # Deactivation fallback (§III-E)
    # ------------------------------------------------------------------
    def _deactivate(self) -> None:
        if self._deactivated:
            return
        self._deactivated = True
        self.metrics.deactivations += 1
        self._trace_instant("deactivation", "deactivate")
        for mirror in self.mirrors:
            self._cancel_sleep(mirror)
            mirror.request_spin_up()

    def _try_reactivate(self) -> None:
        if not self._deactivated:
            return
        for slot in range(len(self._on_duty)):
            current = self._on_duty[slot]
            if self._logger_occupancy(current) < self.config.rotate_threshold:
                continue
            candidate = self._policy.next_logger(
                current, excluded=self._on_duty
            )
            if candidate is None:
                return
            self._on_duty[slot] = candidate
        self._deactivated = False
        self._trace_instant("deactivation", "reactivate")
        duty = set(self._on_duty)
        for index, mirror in enumerate(self.mirrors):
            if index in duty:
                mirror.request_spin_up()
            elif self._active_process[index] is None:
                self._sleep_when_quiet(mirror)

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Aggressively destage everything (post-measurement flush)."""
        self._draining = True
        for pair in range(self.config.n_pairs):
            if self._active_process[pair] is not None:
                # Its completion handler will keep draining this pair.
                self._pending_destage[pair] |= self._dirty[pair]
                self._dirty[pair] = set()
                continue
            if self._dirty[pair] or self._pending_destage[pair]:
                self._pending_destage[pair] |= self._dirty[pair]
                self._dirty[pair] = set()
                self._launch_process(pair, None)
