"""RAID5 baseline controller (substrate for the §VII future-work study).

Implements the classic small-write path: a partial-row write performs a
read-modify-write of both the data unit(s) and the rotating parity unit
(two reads + two writes per touched row), while a full-stripe write skips
the reads entirely.  All disks stay spinning — in a parity array every
disk holds live data, so RoLo's energy lever does not apply; what the
parity variant of RoLo targets is the *small-write penalty* (see
:mod:`repro.core.rolo5`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.base import _noop_note
from repro.core.metrics import RunMetrics
from repro.disk.disk import Disk, DiskOp, OpKind, Priority, Scheduler
from repro.disk.mechanical import MechanicalModel
from repro.disk.models import ULTRASTAR_36Z15, DiskSpec
from repro.disk.power import PowerState
from repro.raid.raid5 import Raid5Layout
from repro.raid.request import IORequest
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclasses.dataclass(frozen=True)
class Raid5Config:
    """Configuration of a RAID5 array (parity analogue of ArrayConfig)."""

    n_disks: int = 10
    stripe_unit: int = 64 * KB
    disk: DiskSpec = ULTRASTAR_36Z15
    #: Per-disk logging-region capacity for RoLo-5.
    free_space_bytes: int = 8 * GB
    rotate_threshold: float = 0.8
    idle_grace_s: float = 0.05
    spread_data: bool = True
    disk_scheduler: str = "fcfs"

    def __post_init__(self) -> None:
        if self.n_disks < 3:
            raise ValueError("RAID5 needs at least three disks")
        if self.stripe_unit <= 0 or self.stripe_unit % 512:
            raise ValueError("stripe unit must be a positive sector multiple")
        if not 0 < self.free_space_bytes < self.disk.capacity_bytes:
            raise ValueError("free space must fit inside the disk")
        if not 0.05 <= self.rotate_threshold <= 1.0:
            raise ValueError("rotate threshold out of range")
        if self.idle_grace_s < 0:
            raise ValueError("idle grace must be non-negative")
        if self.disk_scheduler not in ("fcfs", "sstf"):
            raise ValueError("disk_scheduler must be 'fcfs' or 'sstf'")

    @property
    def data_capacity_bytes(self) -> int:
        raw = self.disk.capacity_bytes - self.free_space_bytes
        return (raw // self.stripe_unit) * self.stripe_unit

    @property
    def log_region_offset(self) -> int:
        return self.data_capacity_bytes

    def layout(self) -> Raid5Layout:
        return Raid5Layout(
            self.n_disks,
            self.stripe_unit,
            self.data_capacity_bytes,
            spread=self.spread_data,
        )

    def scaled(self, scale: float) -> "Raid5Config":
        if scale <= 0:
            raise ValueError("scale must be positive")
        unit = self.stripe_unit
        snapped = max(unit * 4, int(self.free_space_bytes * scale) // unit * unit)
        return dataclasses.replace(self, free_space_bytes=snapped)


class Raid5Controller:
    """Plain RAID5 with read-modify-write parity maintenance."""

    scheme_name = "RAID5"

    def __init__(
        self,
        sim: Simulator,
        config: Raid5Config,
        tracer: object = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.layout = config.layout()
        self.metrics = RunMetrics()
        self._finalized = False
        # Same contract as Controller: a falsy tracer normalizes to None
        # so run_trace and the disks guard with one identity check.
        self.tracer = tracer if tracer else None
        mechanics = MechanicalModel(config.disk)
        self.disks: List[Disk] = [
            Disk(
                sim,
                config.disk,
                f"D{i}",
                initial_state=PowerState.IDLE,
                scheduler=Scheduler(config.disk_scheduler),
                tracer=self.tracer,
                mechanics=mechanics,
            )
            for i in range(config.n_disks)
        ]
        #: Parity read-modify-write pairs issued (the small-write penalty).
        self.parity_rmw_count = 0
        #: Optional consistency oracle (set by ``oracle.attach``); parity
        #: controllers report data segments via ``note_parity_write`` /
        #: ``note_parity_read``.  The setter rebinds the ``_note_parity_*``
        #: fast paths so the no-oracle hot loop never tests for one.
        self._oracle = None
        self._note_parity_write = _noop_note
        self._note_parity_read = _noop_note

    @property
    def oracle(self):
        return self._oracle

    @oracle.setter
    def oracle(self, oracle) -> None:
        self._oracle = oracle
        if oracle is None:
            self._note_parity_write = _noop_note
            self._note_parity_read = _noop_note
        else:
            self._note_parity_write = oracle.note_parity_write
            self._note_parity_read = oracle.note_parity_read

    # ------------------------------------------------------------------
    def disks_by_role(self) -> Dict[str, List[Disk]]:
        return {"data": self.disks}

    def all_disks(self) -> List[Disk]:
        return list(self.disks)

    def dirty_units_total(self) -> int:
        return 0  # parity is maintained synchronously

    def log_regions(self) -> List:
        """No log space (RoLo-5 logs parity deltas in memory)."""
        return []

    def assert_consistent(self) -> None:
        if self.dirty_units_total():
            raise AssertionError("stale parity rows remain")

    def finalize(self) -> RunMetrics:
        if not self._finalized:
            self.metrics.finalize(self.sim.now, self.disks_by_role())
            self._metrics_snapshot = self.metrics.snapshot()
            self._finalized = True
        return self._metrics_snapshot

    def drain(self) -> None:
        """Nothing deferred in the synchronous baseline."""

    # ------------------------------------------------------------------
    def _chain_rmw(
        self,
        disk: Disk,
        offset: int,
        nbytes: int,
        request: IORequest,
    ) -> None:
        """Read-then-write of one extent on one disk, tied to the request."""
        request.add_waits()

        def after_read(_op: DiskOp) -> None:
            disk.submit(
                DiskOp(
                    OpKind.WRITE,
                    offset // 512,
                    nbytes,
                    priority=Priority.FOREGROUND,
                    # op.finish_time is sim.now when the completion fires,
                    # so the bound fan-in equals the former per-op closure.
                    on_complete=request.op_complete,
                )
            )

        # Span linkage: the read's closure hides the owning request from
        # callback introspection, so tag it explicitly.
        after_read._span_owner = request
        disk.submit(
            DiskOp(
                OpKind.READ,
                offset // 512,
                nbytes,
                priority=Priority.FOREGROUND,
                on_complete=after_read,
            )
        )

    def _write_direct(
        self, disk: Disk, offset: int, nbytes: int, request: IORequest
    ) -> None:
        request.add_waits()
        disk.submit(
            DiskOp(
                OpKind.WRITE,
                offset // 512,
                nbytes,
                priority=Priority.FOREGROUND,
                on_complete=request.op_complete,
            )
        )

    def submit(self, request: IORequest) -> None:
        if not request.is_write:
            for seg in self.layout.map_extent(request.offset, request.nbytes):
                self._issue_read(seg, request)
            request.seal(self.sim.now)
            return
        unit = self.layout.stripe_unit
        note_parity_write = self._note_parity_write
        for row, row_off, row_len in self.layout.iter_row_extents(
            request.offset, request.nbytes
        ):
            base = row * self.layout.data_disks_per_row * unit
            segments = self.layout.map_extent(base + row_off, row_len)
            parity_disk, parity_offset = self.layout.parity_offset(row)
            if self.layout.is_full_stripe(
                request.offset, request.nbytes, row
            ):
                for seg in segments:
                    note_parity_write(self, seg)
                    self._write_direct(
                        self.disks[seg.disk], seg.disk_offset, seg.nbytes,
                        request,
                    )
                self._write_direct(
                    self.disks[parity_disk], parity_offset, unit, request
                )
            else:
                for seg in segments:
                    note_parity_write(self, seg)
                    self._chain_rmw(
                        self.disks[seg.disk], seg.disk_offset, seg.nbytes,
                        request,
                    )
                self._chain_rmw(
                    self.disks[parity_disk], parity_offset, unit, request
                )
                self.parity_rmw_count += 1
        request.seal(self.sim.now)

    def _issue_read(self, seg, request: IORequest) -> None:
        disk = self.disks[seg.disk]
        self._note_parity_read(self, seg, disk.name)
        request.add_waits()
        disk.submit(
            DiskOp(
                OpKind.READ,
                seg.disk_offset // 512,
                seg.nbytes,
                priority=Priority.FOREGROUND,
                on_complete=request.op_complete,
            )
        )
