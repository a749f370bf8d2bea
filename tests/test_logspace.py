"""Unit tests for log-space management (region allocator + log regions)."""

import pytest

from repro.core.logspace import LogRegion, LogSpaceError, RegionAllocator
from repro.raid.layout import StripeSegment

KB = 1024
MB = 1024 * KB


class TestRegionAllocator:
    def test_initial_state(self):
        alloc = RegionAllocator(MB)
        assert alloc.free_bytes == MB
        assert alloc.allocated == 0
        assert alloc.fragments == 1
        assert alloc.largest_free_extent == MB

    def test_allocate_first_fit(self):
        alloc = RegionAllocator(MB)
        assert alloc.allocate(64 * KB) == 0
        assert alloc.allocate(64 * KB) == 64 * KB
        assert alloc.allocated == 128 * KB

    def test_allocate_validation(self):
        alloc = RegionAllocator(MB)
        with pytest.raises(ValueError):
            alloc.allocate(0)

    def test_allocate_exhausted_raises(self):
        alloc = RegionAllocator(128 * KB)
        alloc.allocate(128 * KB)
        with pytest.raises(LogSpaceError):
            alloc.allocate(1)

    def test_fragmentation_blocks_large_allocation(self):
        alloc = RegionAllocator(192 * KB)
        a = alloc.allocate(64 * KB)
        alloc.allocate(64 * KB)  # b stays allocated, splitting the space
        c = alloc.allocate(64 * KB)
        alloc.free(a, 64 * KB)
        alloc.free(c, 64 * KB)
        # 128K free in total but no contiguous 128K run.
        assert alloc.free_bytes == 128 * KB
        assert alloc.largest_free_extent == 64 * KB
        with pytest.raises(LogSpaceError):
            alloc.allocate(128 * KB)
        alloc.check_invariants()

    def test_free_coalesces_neighbours(self):
        alloc = RegionAllocator(192 * KB)
        a = alloc.allocate(64 * KB)
        b = alloc.allocate(64 * KB)
        c = alloc.allocate(64 * KB)
        alloc.free(a, 64 * KB)
        alloc.free(c, 64 * KB)
        assert alloc.fragments == 2
        alloc.free(b, 64 * KB)
        assert alloc.fragments == 1
        assert alloc.largest_free_extent == 192 * KB
        alloc.check_invariants()

    def test_double_free_detected(self):
        alloc = RegionAllocator(MB)
        a = alloc.allocate(64 * KB)
        alloc.free(a, 64 * KB)
        with pytest.raises(LogSpaceError):
            alloc.free(a, 64 * KB)

    def test_free_validation(self):
        alloc = RegionAllocator(MB)
        with pytest.raises(ValueError):
            alloc.free(-1, 10)
        with pytest.raises(ValueError):
            alloc.free(0, MB + 1)

    def test_total_validation(self):
        with pytest.raises(ValueError):
            RegionAllocator(0)

    def test_reuse_after_free(self):
        alloc = RegionAllocator(128 * KB)
        a = alloc.allocate(128 * KB)
        alloc.free(a, 128 * KB)
        assert alloc.allocate(128 * KB) == 0


class TestLogRegion:
    def region(self, capacity=MB):
        return LogRegion("test", base_offset=10 * MB, capacity=capacity)

    def test_append_returns_absolute_offset(self):
        region = self.region()
        offset = region.append(64 * KB, {0: 64 * KB}, epoch=0)
        assert offset >= 10 * MB
        assert region.used == 64 * KB

    def test_contributions_must_sum(self):
        region = self.region()
        with pytest.raises(LogSpaceError):
            region.append(64 * KB, {0: 32 * KB}, epoch=0)

    def test_non_positive_contribution_rejected(self):
        region = self.region()
        with pytest.raises(LogSpaceError):
            region.append(64 * KB, {0: 64 * KB, 1: 0}, epoch=0)
        # The failed append must not leak allocated space.
        assert region.used == 0

    def test_occupancy_and_fits(self):
        region = self.region(capacity=128 * KB)
        assert region.fits(128 * KB)
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        assert region.occupancy == pytest.approx(0.5)
        assert region.fits(64 * KB)
        assert not region.fits(65 * KB)

    def test_reclaim_only_older_epochs(self):
        region = self.region()
        region.append(64 * KB, {1: 64 * KB}, epoch=0)
        region.append(64 * KB, {1: 64 * KB}, epoch=1)
        freed = region.reclaim(1, before_epoch=1)
        assert freed == 64 * KB
        assert region.live_bytes(1) == 64 * KB
        region.check_invariants()

    def test_reclaim_only_named_pair(self):
        region = self.region()
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        region.append(64 * KB, {1: 64 * KB}, epoch=0)
        freed = region.reclaim(0, before_epoch=5)
        assert freed == 64 * KB
        assert region.live_bytes(0) == 0
        assert region.live_bytes(1) == 64 * KB

    def test_reclaim_unknown_pair_is_zero(self):
        region = self.region()
        assert region.reclaim(7, before_epoch=10) == 0

    def test_multi_pair_append_reclaims_by_share(self):
        region = self.region()
        region.append(96 * KB, {0: 64 * KB, 1: 32 * KB}, epoch=0)
        assert region.live_bytes(0) == 64 * KB
        assert region.live_bytes(1) == 32 * KB
        freed = region.reclaim(0, before_epoch=1)
        assert freed == 64 * KB
        assert region.used == 32 * KB
        region.check_invariants()

    def test_segment_shares_group_by_pair_in_first_appearance_order(self):
        region = self.region()
        segments = [
            StripeSegment(1, 0, 4 * KB),
            StripeSegment(0, 0, 8 * KB),
            StripeSegment(1, 4 * KB, 4 * KB),
        ]
        assert region.append(16 * KB, segments, epoch=0) == 10 * MB
        assert region.live_bytes(1) == 8 * KB
        assert region.reclaim(1, before_epoch=1) == 8 * KB
        # Pair 1's summed share came first: [0, 8K) is free again.
        assert region._allocator.free_list() == [
            (0, 8 * KB),
            (16 * KB, MB - 16 * KB),
        ]

    def test_adjacent_shares_extend_one_run(self):
        region = self.region()
        region.append(4 * KB, {0: 4 * KB}, epoch=0)
        region.append(4 * KB, [StripeSegment(0, 0, 4 * KB)], epoch=0)
        region.append(4 * KB, {0: 4 * KB}, epoch=1)
        starts, ends = region._live[0][0]
        assert (list(starts), list(ends)) == ([0], [8 * KB])
        region.check_invariants()

    def test_reclaim_all(self):
        region = self.region()
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        region.append(64 * KB, {1: 64 * KB}, epoch=3)
        assert region.reclaim_all() == 128 * KB
        assert region.used == 0

    def test_append_when_full_raises(self):
        region = self.region(capacity=64 * KB)
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        with pytest.raises(LogSpaceError):
            region.append(1 * KB, {0: 1 * KB}, epoch=0)

    def test_space_reusable_after_reclaim(self):
        region = self.region(capacity=64 * KB)
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        region.reclaim(0, before_epoch=1)
        region.append(64 * KB, {0: 64 * KB}, epoch=1)
        assert region.used == 64 * KB

    def test_cache_charge_release(self):
        region = self.region()
        offset = region.charge_cache(64 * KB)
        assert region.cache_used == 64 * KB
        assert region.used == 64 * KB
        region.release_cache(offset, 64 * KB)
        assert region.cache_used == 0
        assert region.used == 0
        region.check_invariants()

    def test_cache_underflow_detected(self):
        region = self.region()
        offset = region.charge_cache(64 * KB)
        region.release_cache(offset, 64 * KB)
        with pytest.raises(LogSpaceError):
            region.release_cache(offset, 64 * KB)

    def test_reset_clears_everything(self):
        region = self.region()
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        region.charge_cache(64 * KB)
        freed = region.reset()
        assert freed == 128 * KB
        assert region.used == 0
        assert region.cache_used == 0
        region.check_invariants()

    def test_counters(self):
        region = self.region()
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        region.reclaim(0, before_epoch=1)
        assert region.appended_bytes == 64 * KB
        assert region.reclaimed_bytes == 64 * KB

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            LogRegion("x", -1, MB)


class TestDataRegionExpansion:
    """§III-E: free logger space can permanently grow the data region."""

    def test_expansion_shrinks_log_capacity(self):
        region = LogRegion("x", 0, MB)
        offset = region.expand_data_region(256 * KB)
        assert offset == 0
        assert region.capacity == MB - 256 * KB
        assert region.converted_bytes == 256 * KB
        assert region.used == 0
        region.check_invariants()

    def test_occupancy_uses_reduced_capacity(self):
        region = LogRegion("x", 0, MB)
        region.expand_data_region(512 * KB)
        region.append(256 * KB, {0: 256 * KB}, epoch=0)
        assert region.occupancy == pytest.approx(0.5)

    def test_expansion_requires_contiguous_run(self):
        region = LogRegion("x", 0, 192 * KB)
        region.append(64 * KB, {0: 64 * KB}, epoch=0)  # splits free space?
        region.append(64 * KB, {1: 64 * KB}, epoch=0)
        region.reclaim(0, before_epoch=1)  # free [0, 64K)
        with pytest.raises(LogSpaceError):
            region.expand_data_region(128 * KB)

    def test_expanded_space_never_returned(self):
        region = LogRegion("x", 0, MB)
        region.expand_data_region(256 * KB)
        region.append(64 * KB, {0: 64 * KB}, epoch=0)
        region.reclaim_all()
        assert region.capacity == MB - 256 * KB
        region.check_invariants()

    def test_reset_preserves_conversion(self):
        region = LogRegion("x", 0, MB)
        region.expand_data_region(256 * KB)
        region.charge_cache(64 * KB)
        region.reset()
        assert region.capacity == MB - 256 * KB
        assert region.converted_bytes == 256 * KB
        assert region.used == 0
        region.check_invariants()

    def test_reset_keeps_converted_extent_in_place(self):
        region = LogRegion("x", 0, MB)
        assert region.append(256 * KB, {0: 256 * KB}, epoch=0) == 0
        assert region.expand_data_region(256 * KB) == 256 * KB
        region.charge_cache(64 * KB)
        region.reset()
        region.check_invariants()
        assert region._allocator.free_list() == [
            (0, 256 * KB),
            (512 * KB, 512 * KB),
        ]
        # First fit skips the converted extent at [256K, 512K).
        assert region.append(512 * KB, {0: 512 * KB}, epoch=1) == 512 * KB

    def test_misplaced_converted_extent_fails_the_check(self):
        region = LogRegion("x", 0, MB)
        region.append(256 * KB, {0: 256 * KB}, epoch=0)
        offset = region.expand_data_region(256 * KB)
        region.reclaim_all()
        # The converted bytes move to offset 0: the totals still balance.
        region._allocator.free(offset, 256 * KB)
        assert region._allocator.allocate(256 * KB) == 0
        with pytest.raises(AssertionError, match="converted extent"):
            region.check_invariants()

    def test_validation(self):
        region = LogRegion("x", 0, MB)
        with pytest.raises(ValueError):
            region.expand_data_region(0)
