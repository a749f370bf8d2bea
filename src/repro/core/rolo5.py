"""RoLo-5: rotated parity logging for RAID5 (the paper's §VII future work).

In a parity array every disk holds live data, so RoLo's RAID10 energy
lever (sleeping mirrors) does not exist.  What *does* transfer is the
rotated-logging + decentralized-destaging structure, aimed at the classic
small-write problem:

* a partial-row write reads the old data, writes the new data, and appends
  the XOR **delta** to the rotating on-duty log region (a sequential
  append) — three I/Os instead of the baseline's four, and crucially no
  synchronous read-modify-write of the parity unit;
* parity units of dirtied rows are brought up to date later by an
  idle-gated background pump (read parity, XOR with accumulated deltas,
  write parity), exactly RoLo's decentralized destaging;
* when the on-duty log region fills, the logger rotates to the next
  disk's free space and the freshly on-duty rotation triggers the parity
  update round, after which the stale delta space is reclaimed.

Redundancy note: between the data write and the parity update, the row's
redundancy is carried by the logged delta (as in parity logging,
Stodolsky et al.), so single-disk fault tolerance is preserved throughout.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.core.logspace import LogRegion
from repro.core.raid5 import Raid5Config, Raid5Controller
from repro.core.rotation import RotationPolicy
from repro.disk.disk import Disk, DiskOp, OpKind, Priority
from repro.raid.request import IORequest
from repro.sim.engine import Simulator, Timer

# Enum members as module constants: a class attribute lookup on an Enum
# costs several times a global's, and the per-request paths read them.
_WRITE = OpKind.WRITE
_BACKGROUND = Priority.BACKGROUND


class ParityUpdatePump:
    """Idle-gated background parity refresher.

    Serially walks a snapshot of dirty rows; for each row it waits (when
    ``idle_gated``) for the row's parity disk to be free of foreground
    work for a grace interval, then performs the parity read-modify-write
    at background priority.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: "Rolo5Controller",
        rows: List[int],
        idle_gated: bool,
        idle_grace_s: float,
        on_complete: Optional[Callable[["ParityUpdatePump"], None]] = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.rows = sorted(rows)
        self.idle_gated = idle_gated
        self.on_complete = on_complete
        #: Span-layer identity: ops completed via the pump's bound methods
        #: attribute their interference to this name.
        self.name = "rolo5-parity-pump"
        self.started_at = sim.now
        self._index = 0
        self._in_flight = False
        self.rows_updated = 0
        self.finished_at = -1.0
        self._timer = Timer(sim, idle_grace_s, self._grace_elapsed)
        self._waiting_disk: Optional[Disk] = None

    @property
    def done(self) -> bool:
        return self.finished_at >= 0

    @property
    def remaining(self) -> int:
        return len(self.rows) - self._index + (1 if self._in_flight else 0)

    def start(self) -> None:
        self._advance()

    def _current_disk(self) -> Disk:
        row = self.rows[self._index]
        disk_index, _ = self.controller.layout.parity_offset(row)
        return self.controller.disks[disk_index]

    def _advance(self) -> None:
        if self.done or self._in_flight:
            return
        if self._index >= len(self.rows):
            self._finish()
            return
        disk = self._current_disk()
        if not self.idle_gated:
            self._issue(disk)
            return
        if disk.pending_foreground == 0:
            self._timer.arm()
        else:
            self._watch(disk)

    def _watch(self, disk: Disk) -> None:
        if self._waiting_disk is not None:
            self._waiting_disk.remove_idle_listener(self._disk_idle)
        self._waiting_disk = disk
        disk.add_idle_listener(self._disk_idle)

    def _disk_idle(self, _disk: Disk) -> None:
        if not self.done and not self._in_flight:
            self._timer.arm()

    def _grace_elapsed(self) -> None:
        if self.done or self._in_flight:
            return
        disk = self._current_disk()
        if disk.pending_foreground == 0:
            self._issue(disk)
        else:
            self._watch(disk)

    def _issue(self, disk: Disk) -> None:
        row = self.rows[self._index]
        self._index += 1
        self._in_flight = True
        layout = self.controller.layout
        _, offset = layout.parity_offset(row)
        self.controller._read_then_write(
            disk, offset, layout.stripe_unit, self._row_done, self,
            _BACKGROUND,
        )

    def _row_done(self, _op: DiskOp) -> None:
        self._in_flight = False
        self.rows_updated += 1
        self._advance()

    def _finish(self) -> None:
        self.finished_at = self.sim.now
        self._timer.cancel()
        if self._waiting_disk is not None:
            self._waiting_disk.remove_idle_listener(self._disk_idle)
            self._waiting_disk = None
        if self.on_complete is not None:
            self.on_complete(self)


class Rolo5Controller(Raid5Controller):
    """RAID5 with rotated parity logging and decentralized parity updates."""

    scheme_name = "RoLo-5"

    def __init__(
        self,
        sim: Simulator,
        config: Raid5Config,
        tracer: object = None,
    ) -> None:
        super().__init__(sim, config, tracer=tracer)
        self._regions: List[LogRegion] = [
            LogRegion(
                f"D{i}-log",
                config.log_region_offset,
                config.free_space_bytes,
            )
            for i in range(config.n_disks)
        ]
        self._on_duty = 0
        self._epoch = 0
        self._dirty_rows: Set[int] = set()
        self._pending_rows: Set[int] = set()
        self._pump: Optional[ParityUpdatePump] = None
        self._deactivated = False
        self._draining = False
        self._policy = RotationPolicy(
            config.n_disks,
            config.rotate_threshold,
            lambda i: self._regions[i].occupancy,
        )

    # ------------------------------------------------------------------
    def dirty_units_total(self) -> int:
        total = len(self._dirty_rows) + len(self._pending_rows)
        if self._pump is not None and not self._pump.done:
            total += self._pump.remaining
        return total

    def log_regions(self) -> List[LogRegion]:
        return list(self._regions)

    @property
    def on_duty_log(self) -> LogRegion:
        return self._regions[self._on_duty]

    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> None:
        if not request.is_write:
            super().submit(request)
            return
        for row, row_len, segments, full in self._row_writes(request):
            if full:
                # Full stripe: write everything in place; parity is fresh.
                self._write_full_row(request, row, segments)
                self._dirty_rows.discard(row)
                continue
            if self._deactivated or not self.on_duty_log.fits(row_len):
                # Fallback: synchronous parity RMW, as in the baseline.
                self._write_rmw_row(request, row, segments)
                if self._deactivated:
                    self._try_reactivate()
                continue
            # Parity-logged small write: read old data + write new data on
            # the data disk(s), append the delta to the on-duty log.
            self._rmw_data(request, segments)
            offset = self.on_duty_log.append(row_len, {0: row_len}, self._epoch)
            self.metrics.logged_bytes += row_len
            self._issue(
                self.disks[self._on_duty], _WRITE, offset, row_len,
                request, sequential=True,
            )
            self._dirty_rows.add(row)
        request.seal(self.sim.now)
        if self.on_duty_log.occupancy >= self.config.rotate_threshold:
            self._rotate()

    # ------------------------------------------------------------------
    def _rotate(self) -> None:
        candidate = self._policy.next_logger(
            self._on_duty, excluded=[self._on_duty]
        )
        if candidate is None:
            self._deactivated = True
            self.metrics.deactivations += 1
            return
        self._epoch += 1
        self.metrics.rotations += 1
        self._on_duty = candidate
        self._trace_instant("rotation", "hand-off", to_disk=f"D{candidate}")
        self._schedule_parity_round()

    def _schedule_parity_round(self) -> None:
        self._pending_rows |= self._dirty_rows
        self._dirty_rows = set()
        if self._pump is not None and not self._pump.done:
            return  # the running pump's completion will pick these up
        self._launch_pump()

    def _launch_pump(self) -> None:
        rows = sorted(self._pending_rows)
        self._pending_rows = set()
        epoch_limit = self._epoch + 1 if self._draining else self._epoch
        if not rows:
            self._reclaim(epoch_limit)
            return
        self._pump = ParityUpdatePump(
            self.sim,
            self,
            rows,
            idle_gated=not self._draining,
            idle_grace_s=self.config.idle_grace_s,
            on_complete=lambda pump, limit=epoch_limit: self._pump_done(
                pump, limit
            ),
        )
        self._pump.start()

    def _pump_done(self, pump: ParityUpdatePump, epoch_limit: int) -> None:
        self.metrics.destage_cycles += 1
        self.metrics.destaged_bytes += (
            pump.rows_updated * self.layout.stripe_unit
        )
        self._trace_span(
            "destage", pump.name, pump.started_at, rows=pump.rows_updated
        )
        self._reclaim(epoch_limit)
        self._pump = None
        if self._pending_rows or (self._draining and self._dirty_rows):
            if self._draining:
                self._pending_rows |= self._dirty_rows
                self._dirty_rows = set()
            self._launch_pump()
        elif self._deactivated:
            self._try_reactivate()

    def _reclaim(self, epoch_limit: int) -> None:
        for region in self._regions:
            region.reclaim(0, epoch_limit)

    def _try_reactivate(self) -> None:
        if not self._deactivated:
            return
        if self.on_duty_log.occupancy < self.config.rotate_threshold:
            self._deactivated = False
            return
        candidate = self._policy.next_logger(
            self._on_duty, excluded=[self._on_duty]
        )
        if candidate is not None:
            self._on_duty = candidate
            self._deactivated = False

    def drain(self) -> None:
        self._draining = True
        self._epoch += 1
        self._schedule_parity_round()
