"""Tests for the SSTF disk scheduler and the burstiness analysis."""

import pytest

from tests.conftest import small_config, write_burst
from repro.core import build_controller, run_trace
from repro.disk.disk import Disk, DiskOp, OpKind, Scheduler
from repro.disk.models import ULTRASTAR_36Z15
from repro.sim import Simulator
from repro.traces.analysis import burstiness_index, classify_burstiness
from repro.traces.compiled import compiled_from_events
from repro.traces.synthetic import (
    Burstiness,
    SyntheticTraceConfig,
    generate_compiled,
)

KB = 1024
MB = 1024 * KB


class TestSSTF:
    def _queue_three(self, sim, scheduler):
        disk = Disk(sim, ULTRASTAR_36Z15, "D", scheduler=scheduler)
        order = []
        sectors = ULTRASTAR_36Z15.capacity_sectors
        # First op parks the head near the start.
        disk.submit(
            DiskOp(OpKind.READ, 0, 64 * KB,
                   on_complete=lambda o: order.append("near-start"))
        )
        # While busy, queue far then near: SSTF should reorder.
        disk.submit(
            DiskOp(OpKind.READ, sectors - 1000, 64 * KB,
                   on_complete=lambda o: order.append("far"))
        )
        disk.submit(
            DiskOp(OpKind.READ, 100_000, 64 * KB,
                   on_complete=lambda o: order.append("near"))
        )
        sim.run()
        return order

    def test_fcfs_preserves_arrival_order(self, sim):
        assert self._queue_three(sim, Scheduler.FCFS) == [
            "near-start",
            "far",
            "near",
        ]

    def test_sstf_serves_nearest_first(self, sim):
        assert self._queue_three(sim, Scheduler.SSTF) == [
            "near-start",
            "near",
            "far",
        ]

    def test_sstf_reduces_total_busy_time(self):
        import random

        rng = random.Random(4)
        sectors = ULTRASTAR_36Z15.capacity_sectors
        offsets = [rng.randrange(sectors - 1000) for _ in range(50)]

        def total_busy(scheduler):
            sim = Simulator()
            disk = Disk(sim, ULTRASTAR_36Z15, "D", scheduler=scheduler)
            for s in offsets:
                disk.submit(DiskOp(OpKind.READ, s, 4 * KB))
            sim.run()
            return disk.busy_time

        assert total_busy(Scheduler.SSTF) < total_busy(Scheduler.FCFS)

    def test_sstf_still_respects_priorities(self, sim):
        from repro.disk.disk import Priority

        disk = Disk(sim, ULTRASTAR_36Z15, "D", scheduler=Scheduler.SSTF)
        order = []
        disk.submit(DiskOp(OpKind.READ, 0, 64 * KB,
                           on_complete=lambda o: order.append("first")))
        # Background op nearest to the head, foreground far away.
        disk.submit(
            DiskOp(OpKind.READ, 200, 64 * KB, priority=Priority.BACKGROUND,
                   on_complete=lambda o: order.append("bg-near"))
        )
        disk.submit(
            DiskOp(OpKind.READ, 30_000_000, 64 * KB,
                   on_complete=lambda o: order.append("fg-far"))
        )
        sim.run()
        assert order == ["first", "fg-far", "bg-near"]

    def test_controller_config_plumbs_scheduler(self, sim):
        controller = build_controller(
            "raid10", sim, small_config(disk_scheduler="sstf")
        )
        assert all(
            d.scheduler is Scheduler.SSTF for d in controller.all_disks()
        )
        metrics = run_trace(controller, write_burst(20, gap=0.001))
        assert metrics.requests == 20

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ValueError):
            small_config(disk_scheduler="elevator")


class TestBurstinessIndex:
    def _trace(self, burstiness):
        return generate_compiled(
            SyntheticTraceConfig(
                duration_s=600.0,
                iops=30.0,
                write_ratio=1.0,
                avg_request_bytes=16 * KB,
                footprint_bytes=32 * MB,
                burstiness=burstiness,
                burst_cycle_s=30.0,
                seed=3,
            )
        )

    def test_poisson_near_one(self):
        index = burstiness_index(self._trace(Burstiness.NONE))
        assert 0.5 < index < 2.5

    def test_bursty_much_larger(self):
        poisson = burstiness_index(self._trace(Burstiness.NONE))
        bursty = burstiness_index(self._trace(Burstiness.VERY_HIGH))
        assert bursty > 5 * poisson

    def test_ordering_across_levels(self):
        levels = [
            Burstiness.NONE,
            Burstiness.MEDIUM,
            Burstiness.VERY_HIGH,
        ]
        indices = [burstiness_index(self._trace(b)) for b in levels]
        assert indices == sorted(indices)

    def test_empty_trace(self):
        assert burstiness_index(compiled_from_events([])) == 0.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            burstiness_index(compiled_from_events([]), window_s=0)

    def test_deterministic_trace(self):
        trace = compiled_from_events(
            (float(i), True, 0, 4096) for i in range(100)
        )
        index = burstiness_index(trace)
        assert index < 0.2  # perfectly regular arrivals

    def test_classification_bands(self):
        assert classify_burstiness(1.0) == "Very Low"
        assert classify_burstiness(5.0) == "Low"
        assert classify_burstiness(20.0) == "Medium"
        assert classify_burstiness(50.0) == "High"
        assert classify_burstiness(500.0) == "Very High"
