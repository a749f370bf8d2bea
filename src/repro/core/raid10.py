"""Plain RAID10 baseline, with online degraded-mode operation.

All disks stay spun up (ACTIVE/IDLE) for the whole run; writes go in place
to both disks of the target pair; reads are balanced across the pair by
queue depth.  This is the paper's energy/performance reference point — its
spin up/down count is zero by construction (Table I).

Degraded mode: after :meth:`~repro.core.base.Controller.fail_disk`, user
I/O routes around the dead drive; ``begin_rebuild`` starts a background
rebuild onto a fresh replacement while new writes are mirrored to it, and
the replacement is swapped into the array when the rebuild completes.  All
of that machinery lives on the :class:`~repro.core.base.Controller` base
(every scheme shares it); RAID10 needs no scheme-specific reaction.
"""

from __future__ import annotations

from typing import Dict, List

# Re-exported for backward compatibility: DataLossError originated here
# before fault handling was hoisted to the controller base.
from repro.core.base import Controller, DataLossError  # noqa: F401
from repro.disk.disk import Disk, OpKind
from repro.raid.request import IORequest

# Enum members as module constants: a class attribute lookup on an Enum
# costs several times a global's, and the per-request paths read them.
_READ = OpKind.READ
_WRITE = OpKind.WRITE


class Raid10Controller(Controller):
    scheme_name = "RAID10"

    def _build_disks(self) -> None:
        n = self.config.n_pairs
        self.primaries: List[Disk] = [
            self._make_disk(f"P{i}") for i in range(n)
        ]
        self.mirrors: List[Disk] = [
            self._make_disk(f"M{i}") for i in range(n)
        ]

    def disks_by_role(self) -> Dict[str, List[Disk]]:
        return {"primary": self.primaries, "mirror": self.mirrors}

    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> None:
        segments = self.layout.map_extent(request.offset, request.nbytes)
        oracle = self._oracle
        if request.is_write:
            for seg in segments:
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
            # note_read is a bound oracle method or the module-level no-op
            # (oracle-note elision); its arguments are cheap, so the call
            # is unconditional.
            note_read = self._note_read
            degraded = self._degraded_pairs
            for seg in segments:
                pair = seg.pair
                source = self._read_source(pair)
                note_read(
                    self,
                    seg,
                    source.name,
                    "degraded" if pair in degraded else "balanced",
                )
                self._issue(
                    source,
                    _READ,
                    seg.disk_offset,
                    seg.nbytes,
                    request,
                )
        request.seal(self.sim._now)
