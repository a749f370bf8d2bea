"""Tests for the RAID5 substrate and the parity-logging RoLo-5 (§VII)."""

import pytest

from repro.core import Raid5Config, build_controller
from repro.core.base import run_trace
from repro.raid.raid5 import Raid5Layout, Raid5Segment
from repro.sim import Simulator
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from tests.conftest import make_trace, write_burst

KB = 1024
MB = 1024 * KB


@pytest.fixture
def layout():
    return Raid5Layout(n_disks=5, stripe_unit=64 * KB, data_capacity=16 * MB)


class TestRaid5Layout:
    def test_validation(self):
        with pytest.raises(ValueError):
            Raid5Layout(2, 64 * KB, MB)
        with pytest.raises(ValueError):
            Raid5Layout(5, 0, MB)
        with pytest.raises(ValueError):
            Raid5Layout(5, 64 * KB, 64 * KB + 1)
        with pytest.raises(ValueError):
            Raid5Segment(-1, 0, 1, 0)

    def test_logical_capacity(self, layout):
        assert layout.logical_capacity == 16 * MB * 4  # 4 data disks

    def test_parity_rotates_over_all_disks(self, layout):
        disks = {layout.parity_disk(r) for r in range(5)}
        assert disks == {0, 1, 2, 3, 4}

    def test_parity_distinct_from_data(self, layout):
        for row in range(10):
            parity = layout.parity_disk(row)
            data = {
                layout.data_disk(row, c)
                for c in range(layout.data_disks_per_row)
            }
            assert parity not in data
            assert len(data) == 4

    def test_map_extent_conserves_bytes(self, layout):
        for offset, nbytes in [(0, 64 * KB), (100, 300 * KB), (5 * KB, 7)]:
            segs = layout.map_extent(offset, nbytes)
            assert sum(s.nbytes for s in segs) == nbytes

    def test_segments_avoid_parity_disk(self, layout):
        segs = layout.map_extent(0, 4 * 64 * KB)  # exactly one row
        rows = {s.row for s in segs}
        assert rows == {0}
        parity = layout.parity_disk(0)
        assert all(s.disk != parity for s in segs)

    def test_round_trip(self, layout):
        for row in (0, 3, 17):
            for column in range(4):
                logical = layout.to_logical(row, column, 5)
                seg = layout.map_extent(logical, 1)[0]
                assert seg.row == row
                assert seg.disk == layout.data_disk(row, column)

    def test_out_of_range(self, layout):
        with pytest.raises(ValueError):
            layout.map_extent(layout.logical_capacity, 1)
        with pytest.raises(ValueError):
            layout.parity_disk(layout.rows)

    def test_full_stripe_detection(self, layout):
        row_bytes = 4 * 64 * KB
        assert layout.is_full_stripe(0, row_bytes, 0)
        assert layout.is_full_stripe(0, 2 * row_bytes, 1)
        assert not layout.is_full_stripe(0, row_bytes - 1, 0)
        assert not layout.is_full_stripe(64 * KB, row_bytes, 0)

    def test_iter_row_extents_partitions(self, layout):
        row_bytes = 4 * 64 * KB
        pieces = list(layout.iter_row_extents(100 * KB, row_bytes))
        assert sum(p[2] for p in pieces) == row_bytes
        assert [p[0] for p in pieces] == [0, 1]

    def test_rows_touched(self, layout):
        touched = layout.rows_touched(0, 5 * 64 * KB)
        assert touched == {0: 4, 1: 1}

    def test_spread_keeps_parity_data_relation(self):
        layout = Raid5Layout(5, 64 * KB, 16 * MB, spread=True)
        seg = layout.map_extent(0, 64 * KB)[0]
        parity_disk, parity_offset = layout.parity_offset(seg.row)
        assert parity_disk != seg.disk
        # Parity sits at the same physical row as the data it protects.
        assert parity_offset == (seg.disk_offset // (64 * KB)) * 64 * KB


def small_raid5(**overrides):
    defaults = dict(
        n_disks=5,
        stripe_unit=64 * KB,
        free_space_bytes=4 * MB,
        idle_grace_s=0.01,
    )
    defaults.update(overrides)
    return Raid5Config(**defaults)


class TestRaid5Controller:
    def test_small_write_is_rmw_on_data_and_parity(self, sim):
        controller = build_controller("raid5", sim, small_raid5())
        metrics = run_trace(controller, write_burst(1))
        # 1 data read + 1 data write + 1 parity read + 1 parity write.
        total_ops = sum(d.ops_completed for d in controller.disks)
        assert total_ops == 4
        assert controller.parity_rmw_count == 1

    def test_full_stripe_write_skips_reads(self, sim):
        controller = build_controller("raid5", sim, small_raid5())
        row_bytes = 4 * 64 * KB
        run_trace(controller, make_trace([(0.0, "w", 0, row_bytes)]))
        reads = sum(
            1 for d in controller.disks for _ in range(0)
        )
        total_ops = sum(d.ops_completed for d in controller.disks)
        # 4 data writes + 1 parity write, no reads.
        assert total_ops == 5
        assert controller.parity_rmw_count == 0

    def test_read_path_single_op(self, sim):
        controller = build_controller("raid5", sim, small_raid5())
        run_trace(controller, make_trace([(0.0, "r", 0, 64 * KB)]))
        assert sum(d.ops_completed for d in controller.disks) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Raid5Config(n_disks=2)
        with pytest.raises(ValueError):
            Raid5Config(rotate_threshold=0.0)
        with pytest.raises(ValueError):
            Raid5Config(free_space_bytes=0)

    def test_scaled(self):
        cfg = Raid5Config().scaled(0.01)
        assert cfg.free_space_bytes % cfg.stripe_unit == 0
        assert cfg.free_space_bytes < Raid5Config().free_space_bytes


class TestRolo5Controller:
    def test_small_write_logs_delta_instead_of_parity_rmw(self, sim):
        controller = build_controller("rolo-5", sim, small_raid5())
        from repro.core.base import run_trace as rt

        metrics = rt(controller, write_burst(1), drain=False)
        # 1 data read + 1 data write + 1 log append = 3 ops, no parity RMW.
        total_ops = sum(d.ops_completed for d in controller.disks)
        assert total_ops == 3
        assert controller.parity_rmw_count == 0
        assert controller.metrics.logged_bytes == 64 * KB
        assert controller.dirty_units_total() == 1

    def test_drain_updates_all_parity(self, sim):
        controller = build_controller("rolo-5", sim, small_raid5())
        # 10 consecutive units span rows 0-2 (4 data units per row).
        run_trace(controller, write_burst(10))
        controller.assert_consistent()
        assert controller.metrics.destaged_bytes == 3 * 64 * KB

    def test_faster_than_baseline_on_small_writes(self):
        trace = generate_trace(
            SyntheticTraceConfig(
                duration_s=60.0,
                iops=30.0,
                write_ratio=1.0,
                avg_request_bytes=16 * KB,
                footprint_bytes=32 * MB,
                seed=2,
            )
        )

        def run(scheme):
            sim = Simulator()
            controller = build_controller(scheme, sim, small_raid5())
            metrics = run_trace(controller, trace)
            controller.assert_consistent()
            return metrics

        baseline = run("raid5")
        rolo = run("rolo-5")
        assert rolo.response_time.mean < baseline.response_time.mean

    def test_rotation_triggers_parity_round(self, sim):
        # 4MB region, threshold 0.8 -> 52 appends of 64K rotate.
        controller = build_controller("rolo-5", sim, small_raid5())
        run_trace(controller, write_burst(60, gap=0.05))
        assert controller.metrics.rotations >= 1
        assert controller.metrics.destage_cycles >= 1
        controller.assert_consistent()

    def test_log_space_reclaimed_after_round(self, sim):
        controller = build_controller("rolo-5", sim, small_raid5())
        run_trace(controller, write_burst(60, gap=0.05))
        for region in controller.log_regions:
            region.check_invariants()
            assert region.live_bytes(0) == 0

    def test_full_stripe_write_bypasses_log(self, sim):
        controller = build_controller("rolo-5", sim, small_raid5())
        row_bytes = 4 * 64 * KB
        run_trace(controller, make_trace([(0.0, "w", 0, row_bytes)]))
        assert controller.metrics.logged_bytes == 0
        assert controller.dirty_units_total() == 0

    def test_fallback_to_rmw_when_log_full(self, sim):
        controller = build_controller(
            "rolo-5", sim, small_raid5(free_space_bytes=256 * KB)
        )
        run_trace(controller, write_burst(30, gap=0.001))
        # Some writes fell back to the synchronous path; all consistent.
        controller.assert_consistent()

    def test_parity_updates_are_background(self, sim):
        controller = build_controller("rolo-5", sim, small_raid5())
        run_trace(controller, write_burst(60, gap=0.05))
        background = sum(d.background_ops for d in controller.disks)
        assert background >= 2  # parity read+write pairs
