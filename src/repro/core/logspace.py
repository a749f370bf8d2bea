"""Logging-space management (paper §III-A data layout and §III-E free-space
management).

Two layers:

* :class:`RegionAllocator` — the used/unused logger-region lists: a
  first-fit interval allocator with coalescing, plus the data-region
  expansion hook the paper describes for when the data region fills.
* :class:`LogRegion` — one disk's logging region.  Appends allocate space
  through the region allocator and are tagged with the contributing mirrored
  pair(s) and the logging epoch, so that when a pair's destage completes the
  stale space *of earlier epochs only* is proactively reclaimed
  (the twilled rectangles of Fig. 5).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, List, Mapping, Tuple

#: A live ``(offset, nbytes)`` chunk's length, mapped over chunk lists
#: by the sums below (no per-chunk generator step).
_length = itemgetter(1)


class LogSpaceError(Exception):
    """Raised when an append does not fit or accounting is violated."""


class RegionAllocator:
    """First-fit interval allocator over ``[0, total)`` with coalescing.

    Models the paper's two linked lists: the free list is kept sorted and
    adjacent free intervals are merged on free, which is the "combine the
    multiple data regions into one sequential region" behaviour of §III-E.
    """

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ValueError("total must be positive")
        self.total = total
        self._free: List[Tuple[int, int]] = [(0, total)]  # (offset, length)
        self.allocated = 0
        #: Memoized largest free interval; None = recompute on next read.
        #: Every mutation invalidates, so ``fits`` probes between
        #: mutations (the §III-C rotation-candidate scans) pay one max()
        #: rather than one per probe.
        self._largest: int = total

    @property
    def free_bytes(self) -> int:
        return self.total - self.allocated

    @property
    def largest_free_extent(self) -> int:
        largest = self._largest
        if largest is None:
            largest = max(
                (length for _, length in self._free), default=0
            )
            self._largest = largest
        return largest

    @property
    def fragments(self) -> int:
        """Number of disjoint free intervals (1 == fully coalesced)."""
        return len(self._free)

    def allocate(self, nbytes: int) -> int:
        """Allocate ``nbytes`` contiguously; returns the offset.

        Raises :class:`LogSpaceError` when no single free interval is large
        enough (even if the total free space would suffice).
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        for index, (offset, length) in enumerate(self._free):
            if length >= nbytes:
                if length == nbytes:
                    del self._free[index]
                else:
                    self._free[index] = (offset + nbytes, length - nbytes)
                self.allocated += nbytes
                self._largest = None
                return offset
        raise LogSpaceError(
            f"no contiguous run of {nbytes} bytes "
            f"(free={self.free_bytes}, largest={self.largest_free_extent})"
        )

    def free(self, offset: int, nbytes: int) -> None:
        """Return an interval to the free list, coalescing neighbours."""
        if nbytes <= 0 or offset < 0 or offset + nbytes > self.total:
            raise ValueError(f"invalid interval ({offset}, {nbytes})")
        # Find insertion point keeping the list sorted by offset.
        lo = bisect_left(self._free, (offset,))
        # Overlap checks against neighbours.
        if lo > 0:
            prev_off, prev_len = self._free[lo - 1]
            if prev_off + prev_len > offset:
                raise LogSpaceError("double free (overlaps previous interval)")
        if lo < len(self._free) and offset + nbytes > self._free[lo][0]:
            raise LogSpaceError("double free (overlaps next interval)")
        self._free.insert(lo, (offset, nbytes))
        self.allocated -= nbytes
        self._largest = None
        # Coalesce with next, then previous.
        if lo + 1 < len(self._free):
            off, length = self._free[lo]
            next_off, next_len = self._free[lo + 1]
            if off + length == next_off:
                self._free[lo] = (off, length + next_len)
                del self._free[lo + 1]
        if lo > 0:
            prev_off, prev_len = self._free[lo - 1]
            off, length = self._free[lo]
            if prev_off + prev_len == off:
                self._free[lo - 1] = (prev_off, prev_len + length)
                del self._free[lo]

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        cursor = -1
        free_total = 0
        for offset, length in self._free:
            if length <= 0:
                raise AssertionError("empty free interval")
            if offset <= cursor:
                raise AssertionError("free list unsorted or overlapping")
            cursor = offset + length - 1
            free_total += length
        if free_total + self.allocated != self.total:
            raise AssertionError("free + allocated != total")


class LogRegion:
    """One disk's logging region with per-(pair, epoch) live accounting."""

    def __init__(self, name: str, base_offset: int, capacity: int) -> None:
        if base_offset < 0:
            raise ValueError("negative base offset")
        self.name = name
        self.base_offset = base_offset
        self.capacity = capacity
        self._allocator = RegionAllocator(capacity)
        # live[pair][epoch] -> list of (offset, nbytes) intervals.
        self._live: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
        self._cache_used = 0
        self._converted = 0
        self.appended_bytes = 0
        self.reclaimed_bytes = 0

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        return self._allocator.allocated - self._converted

    @property
    def converted_bytes(self) -> int:
        """Log space permanently handed over to the data region (§III-E)."""
        return self._converted

    @property
    def free_bytes(self) -> int:
        return self._allocator.free_bytes

    @property
    def occupancy(self) -> float:
        return self.used / self.capacity

    @property
    def cache_used(self) -> int:
        return self._cache_used

    def live_bytes(self, pair: int) -> int:
        epochs = self._live.get(pair)
        if not epochs:
            return 0
        return sum(sum(map(_length, chunks)) for chunks in epochs.values())

    # ------------------------------------------------------------------
    def fits(self, nbytes: int) -> bool:
        return self._allocator.largest_free_extent >= nbytes

    def append(
        self, nbytes: int, contributions: Mapping[int, int], epoch: int
    ) -> int:
        """Append ``nbytes`` of log data; returns the absolute disk offset.

        ``contributions`` maps mirrored-pair index to the byte share of this
        append attributable to that pair (a striped user write can span
        pairs); shares must sum to ``nbytes``.
        """
        if any(share <= 0 for share in contributions.values()):
            raise LogSpaceError("non-positive contribution")
        if sum(contributions.values()) != nbytes:
            raise LogSpaceError("contributions do not sum to append size")
        offset = self._allocator.allocate(nbytes)
        cursor = offset
        for pair, share in contributions.items():
            chunks = self._live.setdefault(pair, {}).setdefault(epoch, [])
            chunks.append((cursor, share))
            cursor += share
        self.appended_bytes += nbytes
        return self.base_offset + offset

    def reclaim(self, pair: int, before_epoch: int) -> int:
        """Free all of ``pair``'s log data from epochs < ``before_epoch``.

        Returns the number of bytes reclaimed.  This is the proactive
        reclamation of §III-A: once pair *p*'s mirror is consistent, every
        older logged copy of *p*'s data is stale.
        """
        epochs = self._live.get(pair)
        if not epochs:
            return 0
        freed = 0
        for epoch in [e for e in epochs if e < before_epoch]:
            for offset, nbytes in epochs.pop(epoch):
                self._allocator.free(offset, nbytes)
                freed += nbytes
        if not epochs:
            del self._live[pair]
        self.reclaimed_bytes += freed
        return freed

    def reclaim_all(self) -> int:
        """Free every logged byte (GRAID/RoLo-E post-destage truncation)."""
        freed = 0
        for pair in list(self._live):
            freed += self.reclaim(pair, before_epoch=2**62)
        return freed

    def reset(self) -> int:
        """Truncate the region entirely: logged data *and* cache charges.

        Returns the number of bytes released.  RoLo-E calls this at the end
        of each centralized destage, when both the logged writes and the
        popular-block cache copies become redundant with the freshly
        consistent home locations.
        """
        freed = self.reclaim_all()
        if self._cache_used:
            freed += self._cache_used
            self._allocator = RegionAllocator(
                self.capacity + self._converted
            )
            if self._converted:
                self._allocator.allocate(self._converted)
            self._cache_used = 0
        return freed

    # ------------------------------------------------------------------
    # Read-cache space (RoLo-E): charged against the same physical region.
    # ------------------------------------------------------------------
    def charge_cache(self, nbytes: int) -> int:
        """Allocate cache space; returns absolute disk offset."""
        offset = self._allocator.allocate(nbytes)
        self._cache_used += nbytes
        return self.base_offset + offset

    def release_cache(self, abs_offset: int, nbytes: int) -> None:
        self._allocator.free(abs_offset - self.base_offset, nbytes)
        self._cache_used -= nbytes
        if self._cache_used < 0:
            raise LogSpaceError("cache accounting underflow")

    def expand_data_region(self, nbytes: int) -> int:
        """Permanently convert free logging space into data space (§III-E).

        "If the existing data region is full, one unused logger region will
        be freed from the unused logger region list to expand the data
        region."  Requires a contiguous free run (the background coalescing
        of :class:`RegionAllocator` exists to make that likely); raises
        :class:`LogSpaceError` otherwise.  Returns the absolute disk offset
        of the converted extent.
        """
        if nbytes <= 0:
            raise ValueError("expansion size must be positive")
        offset = self._allocator.allocate(nbytes)  # LogSpaceError if split
        self._converted += nbytes
        self.capacity -= nbytes
        return self.base_offset + offset

    def check_invariants(self) -> None:
        self._allocator.check_invariants()
        live_total = sum(
            sum(map(_length, chunks))
            for epochs in self._live.values()
            for chunks in epochs.values()
        )
        if live_total + self._cache_used != self.used:
            raise AssertionError("live + cache != allocated")
        if self.capacity + self._converted != self._allocator.total:
            raise AssertionError("capacity + converted != original total")
