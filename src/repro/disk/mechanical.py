"""Mechanical timing model: seek curve, rotational latency, transfer.

We use the standard square-root seek curve (seek time grows with the square
root of cylinder distance, clamped between the track-to-track and full-stroke
times) that DiskSim's synthetic drives use.  LBAs are mapped to cylinders
linearly; zoning is deliberately omitted — the paper's results depend on the
sequential-vs-random distinction, not zone bit recording.
"""

from __future__ import annotations

import math

from repro.disk.models import SECTOR_SIZE, DiskSpec


class MechanicalModel:
    """Computes per-operation service times for one drive.

    The model keeps no per-disk state; callers pass the previous head
    position, so one instance (and its seek memo) serves every disk of the
    same spec in an array.
    """

    def __init__(self, spec: DiskSpec) -> None:
        self.spec = spec
        self._sectors_per_cylinder = max(
            1, spec.capacity_sectors // spec.cylinders
        )
        # service_time() runs once per disk op on every simulated disk;
        # flatten the spec properties it needs into plain attributes so the
        # hot path is pure local arithmetic.
        self._max_cylinder = spec.cylinders - 1
        self._rot_latency = spec.avg_rotational_latency
        self._transfer_rate = spec.sustained_transfer_rate
        self._t2t_seek = spec.track_to_track_seek_time
        self._full_seek = spec.full_stroke_seek_time
        # Calibrate seek(d) = a + b * sqrt(d) so that the mean over a
        # uniformly random pair of cylinders equals avg_seek_time and the
        # full stroke equals full_stroke_seek_time.  For X, Y uniform on
        # [0, C], E[sqrt(|X-Y|)] = (8/15) * sqrt(C).
        c = float(spec.cylinders)
        mean_sqrt_dist = (8.0 / 15.0) * math.sqrt(c)
        denom = math.sqrt(c) - mean_sqrt_dist
        if denom <= 0:  # pragma: no cover - degenerate tiny geometry
            self._seek_a = spec.avg_seek_time
            self._seek_b = 0.0
        else:
            self._seek_b = (
                spec.full_stroke_seek_time - spec.avg_seek_time
            ) / denom
            self._seek_a = spec.full_stroke_seek_time - self._seek_b * math.sqrt(c)
        # Seek-time memo keyed by cylinder distance.  The block layout
        # quantizes requests to stripe-unit boundaries, so real workloads
        # produce a small set of distinct distances; memoizing turns the
        # sqrt + double clamp into one dict probe.  Bounded by the cylinder
        # count, so the memo cannot grow past a few tens of thousands of
        # floats even under fully random access.
        self._seek_memo: dict = {}

    def cylinder_of(self, sector: int) -> int:
        """Cylinder holding ``sector`` (linear mapping)."""
        if sector < 0:
            raise ValueError("negative sector")
        return min(
            sector // self._sectors_per_cylinder, self.spec.cylinders - 1
        )

    def seek_time(self, from_sector: int, to_sector: int) -> float:
        """Head movement time between two sectors."""
        distance = abs(
            self.cylinder_of(to_sector) - self.cylinder_of(from_sector)
        )
        if distance == 0:
            return 0.0
        raw = self._seek_a + self._seek_b * math.sqrt(distance)
        return min(
            self.spec.full_stroke_seek_time,
            max(self.spec.track_to_track_seek_time, raw),
        )

    def service_time(
        self, head_sector: int, start_sector: int, nbytes: int
    ) -> float:
        """Total service time of an op starting at ``start_sector``.

        A perfectly sequential op (head already at ``start_sector``) pays
        transfer time only — this is what makes log appends cheap.  Any
        other op pays seek + expected rotational latency + transfer.
        """
        transfer = nbytes / self._transfer_rate
        if head_sector == start_sector:
            return transfer
        spc = self._sectors_per_cylinder
        cmax = self._max_cylinder
        from_cyl = head_sector // spc
        if from_cyl > cmax:
            from_cyl = cmax
        to_cyl = start_sector // spc
        if to_cyl > cmax:
            to_cyl = cmax
        distance = from_cyl - to_cyl
        if distance == 0:
            return self._rot_latency + transfer
        if distance < 0:
            distance = -distance
        memo = self._seek_memo
        seek = memo.get(distance)
        if seek is None:
            raw = self._seek_a + self._seek_b * math.sqrt(distance)
            if raw < self._t2t_seek:
                raw = self._t2t_seek
            elif raw > self._full_seek:
                raw = self._full_seek
            memo[distance] = seek = raw
        return seek + self._rot_latency + transfer

    def seek_rotation(
        self, head_sector: int, start_sector: int
    ) -> "tuple[float, float]":
        """``(seek, rotation)`` components of :meth:`service_time`.

        Mirrors the arithmetic (including the shared seek memo and clamps)
        exactly, so for any op::

            service_time(h, s, n) == seek + rot + nbytes / transfer_rate

        with ``seek, rot = seek_rotation(h, s)``.  Used by the span layer
        to decompose a completed op's service interval into mechanical
        phases without perturbing the hot path.
        """
        if head_sector == start_sector:
            return (0.0, 0.0)
        spc = self._sectors_per_cylinder
        cmax = self._max_cylinder
        from_cyl = head_sector // spc
        if from_cyl > cmax:
            from_cyl = cmax
        to_cyl = start_sector // spc
        if to_cyl > cmax:
            to_cyl = cmax
        distance = from_cyl - to_cyl
        if distance == 0:
            return (0.0, self._rot_latency)
        if distance < 0:
            distance = -distance
        memo = self._seek_memo
        seek = memo.get(distance)
        if seek is None:
            raw = self._seek_a + self._seek_b * math.sqrt(distance)
            if raw < self._t2t_seek:
                raw = self._t2t_seek
            elif raw > self._full_seek:
                raw = self._full_seek
            memo[distance] = seek = raw
        return (seek, self._rot_latency)

    @staticmethod
    def end_sector(start_sector: int, nbytes: int) -> int:
        """Head position after transferring ``nbytes`` from ``start_sector``."""
        return start_sector + (nbytes + SECTOR_SIZE - 1) // SECTOR_SIZE
