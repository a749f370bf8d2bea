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

Space is accounted per run, not per append: each (pair, epoch) keeps its
live space as two flat ``array('q')`` columns of run starts and ends, and a
share that begins where the column's last run ended extends that run.  A
reclaim hands every run of the freed epochs to the allocator at once, which
merges them into its free list in one sorted pass.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, filterfalse, islice
from operator import le, sub
from typing import Dict, Iterable, List, Mapping, Tuple, Union

#: One (pair, epoch)'s live runs: ``(starts, ends)`` columns.
Runs = Tuple[array, array]


class LogSpaceError(Exception):
    """Raised when an append does not fit or accounting is violated."""


class RegionAllocator:
    """First-fit interval allocator over ``[0, total)`` with coalescing.

    Models the paper's two linked lists: the free list is kept sorted and
    adjacent free intervals are merged on free, which is the "combine the
    multiple data regions into one sequential region" behaviour of §III-E.
    The free list is two parallel lists of interval starts and ends.
    """

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ValueError("total must be positive")
        self.total = total
        self._starts: List[int] = [0]
        self._ends: List[int] = [total]
        self.allocated = 0
        #: Length of the largest free interval, kept exact by every
        #: mutation, so a ``fits`` probe is one attribute read.  It is
        #: recomputed only when the interval it measured shrinks while
        #: other fragments exist, or after a bulk free.
        self.largest_free_extent = total

    @property
    def free_bytes(self) -> int:
        return self.total - self.allocated

    @property
    def fragments(self) -> int:
        """Number of disjoint free intervals (1 == fully coalesced)."""
        return len(self._starts)

    def free_list(self) -> List[Tuple[int, int]]:
        """The free intervals as sorted ``(offset, length)`` pairs."""
        return [
            (start, end - start)
            for start, end in zip(self._starts, self._ends)
        ]

    def allocate(self, nbytes: int) -> int:
        """Allocate ``nbytes`` contiguously; returns the offset.

        Raises :class:`LogSpaceError` when no single free interval is large
        enough (even if the total free space would suffice).
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        starts = self._starts
        ends = self._ends
        index = 0
        for start in starts:
            length = ends[index] - start
            if length >= nbytes:
                if length == nbytes:
                    del starts[index]
                    del ends[index]
                else:
                    starts[index] = start + nbytes
                self.allocated += nbytes
                if length == self.largest_free_extent:
                    self.largest_free_extent = (
                        ends[0] - starts[0]
                        if len(starts) == 1
                        else max(map(sub, ends, starts), default=0)
                    )
                return start
            index += 1
        raise LogSpaceError(
            f"no contiguous run of {nbytes} bytes "
            f"(free={self.free_bytes}, largest={self.largest_free_extent})"
        )

    def free(self, offset: int, nbytes: int) -> None:
        """Return an interval to the free list, coalescing neighbours."""
        if nbytes <= 0 or offset < 0 or offset + nbytes > self.total:
            raise ValueError(f"invalid interval ({offset}, {nbytes})")
        starts = self._starts
        ends = self._ends
        end = offset + nbytes
        # Insertion point keeping the list sorted by offset.
        lo = bisect_left(starts, offset)
        if lo > 0 and ends[lo - 1] > offset:
            raise LogSpaceError("double free (overlaps previous interval)")
        if lo < len(starts) and end > starts[lo]:
            raise LogSpaceError("double free (overlaps next interval)")
        joins_next = lo < len(starts) and starts[lo] == end
        if lo > 0 and ends[lo - 1] == offset:
            lo -= 1
            if joins_next:
                ends[lo] = ends[lo + 1]
                del starts[lo + 1]
                del ends[lo + 1]
            else:
                ends[lo] = end
        elif joins_next:
            starts[lo] = offset
        else:
            starts.insert(lo, offset)
            ends.insert(lo, end)
        self.allocated -= nbytes
        length = ends[lo] - starts[lo]
        if length > self.largest_free_extent:
            self.largest_free_extent = length

    def free_runs(self, starts: Iterable[int], ends: Iterable[int]) -> int:
        """Free the disjoint intervals ``[starts[i], ends[i])`` at once.

        One sorted merge with the free list replaces a bisect and insert
        per interval.  The coalesced free list is the same set of intervals
        that freeing them one by one through :meth:`free` leaves, in any
        order.  Returns the number of bytes freed.
        """
        merged_starts = sorted(chain(self._starts, starts))
        merged_ends = sorted(chain(self._ends, ends))
        if len(merged_starts) != len(merged_ends):
            raise ValueError("unpaired interval bounds")
        if merged_starts and (
            merged_starts[0] < 0 or merged_ends[-1] > self.total
        ):
            raise ValueError("interval outside the region")
        # Sorted on their own, the starts and ends of disjoint intervals
        # stay paired and each interval ends at or before the next one
        # starts; any overlap, a double free included, breaks that order.
        if not all(map(le, merged_ends, islice(merged_starts, 1, None))):
            raise LogSpaceError("double free (overlapping intervals)")
        freed = sum(merged_ends) - sum(merged_starts) - self.free_bytes
        # A bound that ends one interval and starts the next is a seam.
        seams = set(merged_ends).intersection(merged_starts)
        if seams:
            seam = seams.__contains__
            merged_starts = list(filterfalse(seam, merged_starts))
            merged_ends = list(filterfalse(seam, merged_ends))
        self._starts = merged_starts
        self._ends = merged_ends
        self.allocated -= freed
        self.largest_free_extent = max(
            map(sub, merged_ends, merged_starts), default=0
        )
        return freed

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        if len(self._starts) != len(self._ends):
            raise AssertionError("free list columns differ in length")
        cursor = -1
        free_total = 0
        largest = 0
        for start, end in zip(self._starts, self._ends):
            if end <= start:
                raise AssertionError("empty free interval")
            if start <= cursor:
                raise AssertionError(
                    "free list unsorted, overlapping or uncoalesced"
                )
            cursor = end
            free_total += end - start
            largest = max(largest, end - start)
        if free_total + self.allocated != self.total:
            raise AssertionError("free + allocated != total")
        if largest != self.largest_free_extent:
            raise AssertionError("largest free extent is stale")


def _new_runs(start: int, end: int) -> Runs:
    return array("q", (start,)), array("q", (end,))


def _column_bytes(runs: Runs) -> int:
    starts, ends = runs
    return sum(ends) - sum(starts)


class LogRegion:
    """One disk's logging region with per-(pair, epoch) live accounting."""

    def __init__(self, name: str, base_offset: int, capacity: int) -> None:
        if base_offset < 0:
            raise ValueError("negative base offset")
        self.name = name
        self.base_offset = base_offset
        self.capacity = capacity
        self._allocator = RegionAllocator(capacity)
        #: live[pair][epoch] -> that (pair, epoch)'s live runs.
        self._live: Dict[int, Dict[int, Runs]] = {}
        self._cache_used = 0
        self._converted = 0
        #: ``(offset, nbytes)`` of every extent handed to the data region.
        self._converted_extents: List[Tuple[int, int]] = []
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
        return sum(map(_column_bytes, epochs.values()))

    # ------------------------------------------------------------------
    def fits(self, nbytes: int) -> bool:
        return self._allocator.largest_free_extent >= nbytes

    def append(
        self,
        nbytes: int,
        contributions: Union[Mapping[int, int], list],
        epoch: int,
    ) -> int:
        """Append ``nbytes`` of log data; returns the absolute disk offset.

        ``contributions`` gives each mirrored pair's byte share of this
        append (a striped user write can span pairs): either a mapping of
        pair index to share, or the write's list of stripe segments (each
        with ``pair`` and ``nbytes``).  Shares are laid out grouped by pair
        in order of first appearance, and must sum to ``nbytes``.
        """
        if not isinstance(contributions, list):
            pairs = contributions.keys()
            shares = contributions.values()
        elif len(contributions) == 1:
            seg = contributions[0]
            pairs = (seg.pair,)
            shares = (seg.nbytes,)
        else:
            pairs = []
            shares = []
            for seg in contributions:
                pair = seg.pair
                if pair in pairs:
                    shares[pairs.index(pair)] += seg.nbytes
                else:
                    pairs.append(pair)
                    shares.append(seg.nbytes)
        if shares and min(shares) <= 0:
            raise LogSpaceError("non-positive contribution")
        if sum(shares) != nbytes:
            raise LogSpaceError("contributions do not sum to append size")
        offset = self._allocator.allocate(nbytes)
        cursor = offset
        live = self._live
        for pair, share in zip(pairs, shares):
            end = cursor + share
            epochs = live.get(pair)
            if epochs is None:
                live[pair] = {epoch: _new_runs(cursor, end)}
            else:
                runs = epochs.get(epoch)
                if runs is None:
                    epochs[epoch] = _new_runs(cursor, end)
                else:
                    starts, ends = runs
                    if ends[-1] == cursor:
                        ends[-1] = end
                    else:
                        starts.append(cursor)
                        ends.append(end)
            cursor = end
        self.appended_bytes += nbytes
        return self.base_offset + offset

    def reclaim(self, pair: int, before_epoch: int) -> int:
        """Free all of ``pair``'s log data from epochs < ``before_epoch``.

        Returns the number of bytes reclaimed.  This is the proactive
        reclamation of §III-A: once pair *p*'s mirror is consistent, every
        older logged copy of *p*'s data is stale.  The freed epochs' runs
        go back to the free list in one merge.
        """
        epochs = self._live.get(pair)
        if not epochs:
            return 0
        stale = [epoch for epoch in epochs if epoch < before_epoch]
        if not stale:
            return 0
        runs = [epochs.pop(epoch) for epoch in stale]
        if not epochs:
            del self._live[pair]
        freed = self._allocator.free_runs(
            chain.from_iterable(starts for starts, _ in runs),
            chain.from_iterable(ends for _, ends in runs),
        )
        self.reclaimed_bytes += freed
        return freed

    def reclaim_all(self) -> int:
        """Free every logged byte (GRAID/RoLo-E post-destage truncation).

        One :meth:`reclaim` per live pair, each a single merge.
        """
        freed = 0
        for pair in list(self._live):
            freed += self.reclaim(pair, before_epoch=2**62)
        return freed

    def reset(self) -> int:
        """Truncate the region entirely: logged data *and* cache charges.

        Returns the number of bytes released.  RoLo-E calls this at the end
        of each centralized destage, when both the logged writes and the
        popular-block cache copies become redundant with the freshly
        consistent home locations.  Only the extents converted to data
        space stay allocated, where :meth:`expand_data_region` put them.
        """
        freed = self.reclaim_all()
        if self._cache_used:
            freed += self._cache_used
            self._cache_used = 0
            allocator = RegionAllocator(self._allocator.total)
            if self._converted_extents:
                allocator.allocate(allocator.total)
                starts, ends = [], []
                cursor = 0
                for offset, nbytes in sorted(self._converted_extents):
                    if offset > cursor:
                        starts.append(cursor)
                        ends.append(offset)
                    cursor = offset + nbytes
                if cursor < allocator.total:
                    starts.append(cursor)
                    ends.append(allocator.total)
                allocator.free_runs(starts, ends)
            self._allocator = allocator
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
        self._converted_extents.append((offset, nbytes))
        self.capacity -= nbytes
        return self.base_offset + offset

    def check_invariants(self) -> None:
        self._allocator.check_invariants()
        live_total = sum(
            sum(map(_column_bytes, epochs.values()))
            for epochs in self._live.values()
        )
        if live_total + self._cache_used != self.used:
            raise AssertionError("live + cache != allocated")
        if self.capacity + self._converted != self._allocator.total:
            raise AssertionError("capacity + converted != original total")
        starts = self._allocator._starts
        ends = self._allocator._ends
        for offset, nbytes in self._converted_extents:
            index = bisect_left(starts, offset + nbytes)
            if index and ends[index - 1] > offset:
                raise AssertionError("converted extent is on the free list")
