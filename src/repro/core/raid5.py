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
from typing import Callable, Dict, List

from repro.core.base import Controller
from repro.disk.disk import Disk, DiskOp, OpKind, Priority
from repro.disk.models import ULTRASTAR_36Z15, DiskSpec
from repro.raid.raid5 import Raid5Layout
from repro.raid.request import IORequest
from repro.sim.engine import Simulator

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

# Enum members as module constants: a class attribute lookup on an Enum
# costs several times a global's, and the per-request paths read them.
_READ = OpKind.READ
_WRITE = OpKind.WRITE


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


class Raid5Controller(Controller):
    """Plain RAID5 with read-modify-write parity maintenance."""

    scheme_name = "RAID5"

    def __init__(
        self,
        sim: Simulator,
        config: Raid5Config,
        tracer: object = None,
    ) -> None:
        super().__init__(sim, config, tracer=tracer)
        #: Parity read-modify-write pairs issued (the small-write penalty).
        self.parity_rmw_count = 0

    def _build_disks(self) -> None:
        self.disks: List[Disk] = [
            self._make_disk(f"D{i}") for i in range(self.config.n_disks)
        ]

    def disks_by_role(self) -> Dict[str, List[Disk]]:
        return {"data": self.disks}

    def fail_disk(self, disk: Disk) -> None:
        """Refuse: a parity array has no degraded mode yet.

        Serving a failed member needs reconstruct-reads from the row's
        survivors, degraded writes and a row-reconstruction rebuild, none
        of which exist, so the refusal comes before any state changes."""
        raise NotImplementedError(
            f"{self.scheme_name} cannot fail {disk.name}: RAID5 degraded "
            "mode (reconstruct-reads, row-reconstruction rebuild) is not "
            "implemented"
        )

    # ------------------------------------------------------------------
    def _read_then_write(
        self,
        disk: Disk,
        offset: int,
        nbytes: int,
        on_written: Callable[[DiskOp], None],
        owner: object,
        priority: Priority = Priority.FOREGROUND,
    ) -> None:
        """Read one extent, then write it back (one read-modify-write)."""

        def after_read(_op: DiskOp) -> None:
            self._issue(
                disk, _WRITE, offset, nbytes,
                priority=priority, on_complete=on_written,
            )

        # Span linkage: the closure hides ``owner`` from callback
        # introspection, so tag it explicitly.
        after_read._span_owner = owner
        self._issue(
            disk, _READ, offset, nbytes,
            priority=priority, on_complete=after_read,
        )

    def _chain_rmw(
        self,
        disk: Disk,
        offset: int,
        nbytes: int,
        request: IORequest,
    ) -> None:
        """Read-then-write of one extent on one disk, tied to the request."""
        request.add_waits()
        self._read_then_write(
            disk, offset, nbytes, request.op_complete, request
        )

    def _write_full_row(self, request: IORequest, row: int, segments) -> None:
        """Full-stripe write: data and fresh parity in place, no reads."""
        parity_disk, parity_offset = self.layout.parity_offset(row)
        disks = self.disks
        for seg in segments:
            self._note_parity_write(self, seg)
            self._issue(
                disks[seg.disk], _WRITE, seg.disk_offset, seg.nbytes,
                request,
            )
        self._issue(
            disks[parity_disk], _WRITE, parity_offset,
            self.layout.stripe_unit, request,
        )

    def _rmw_data(self, request: IORequest, segments) -> None:
        """Read-modify-write of each data segment of one row."""
        disks = self.disks
        for seg in segments:
            self._note_parity_write(self, seg)
            self._chain_rmw(
                disks[seg.disk], seg.disk_offset, seg.nbytes, request
            )

    def _write_rmw_row(self, request: IORequest, row: int, segments) -> None:
        """Partial-row write: read-modify-write of the data and parity."""
        self._rmw_data(request, segments)
        parity_disk, parity_offset = self.layout.parity_offset(row)
        self._chain_rmw(
            self.disks[parity_disk], parity_offset, self.layout.stripe_unit,
            request,
        )
        self.parity_rmw_count += 1

    def _row_writes(self, request: IORequest):
        """Yield ``(row, row_len, segments, full)`` for each row a write
        touches."""
        layout = self.layout
        row_bytes = layout.data_disks_per_row * layout.stripe_unit
        for row, row_off, row_len in layout.iter_row_extents(
            request.offset, request.nbytes
        ):
            segments = layout.map_extent(row * row_bytes + row_off, row_len)
            full = layout.is_full_stripe(request.offset, request.nbytes, row)
            yield row, row_len, segments, full

    def submit(self, request: IORequest) -> None:
        if not request.is_write:
            disks = self.disks
            for seg in self.layout.map_extent(request.offset, request.nbytes):
                disk = disks[seg.disk]
                self._note_parity_read(self, seg, disk.name)
                self._issue(
                    disk, _READ, seg.disk_offset, seg.nbytes, request
                )
            request.seal(self.sim.now)
            return
        for row, _row_len, segments, full in self._row_writes(request):
            if full:
                self._write_full_row(request, row, segments)
            else:
                self._write_rmw_row(request, row, segments)
        request.seal(self.sim.now)
