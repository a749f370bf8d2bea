"""Unit tests for RoLo-E (everything asleep except one logging pair)."""

import pytest

from tests.conftest import make_trace, small_config, write_burst
from repro.core import RoloEController, run_trace
from repro.core.base import run_trace as run_trace_base
from repro.disk.models import ULTRASTAR_36Z15
from repro.disk.power import PowerState
from repro.sim import Simulator

KB = 1024
MB = 1024 * KB


def build(sim, **overrides):
    return RoloEController(sim, small_config(**overrides))


class TestWritePath:
    def test_writes_buffered_on_duty_pair_only(self, sim):
        controller = build(sim)
        # Write targeting pair 1 — must NOT touch pair 1's disks.
        run_trace_base(
            controller,
            make_trace([(0.0, "w", 64 * KB, 64 * KB)]),
            drain=False,
        )
        assert controller.primaries[0].foreground_ops == 1
        assert controller.mirrors[0].foreground_ops == 1
        assert controller.primaries[1].ops_completed == 0
        assert controller.mirrors[1].ops_completed == 0
        assert controller.primaries[1].state is PowerState.STANDBY

    def test_both_log_regions_charged(self, sim):
        controller = build(sim)
        run_trace_base(controller, write_burst(3), drain=False)
        assert controller.primary_logs[0].used == 3 * 64 * KB
        assert controller.mirror_logs[0].used == 3 * 64 * KB

    def test_writes_fast_sequential(self, sim):
        controller = build(sim)
        metrics = run_trace_base(controller, write_burst(10), drain=False)
        seq = ULTRASTAR_36Z15.transfer_time(64 * KB)
        assert metrics.response_time.mean < 5 * seq

    def test_dirty_covers_home_pair(self, sim):
        controller = build(sim)
        run_trace_base(
            controller,
            make_trace([(0.0, "w", 64 * KB, 64 * KB)]),
            drain=False,
        )
        assert controller.dirty_units_total() == 1


class TestReadPath:
    def test_recently_written_block_is_hit(self, sim):
        controller = build(sim)
        metrics = run_trace_base(
            controller,
            make_trace(
                [(0.0, "w", 64 * KB, 64 * KB), (1.0, "r", 64 * KB, 64 * KB)]
            ),
            drain=False,
        )
        assert metrics.read_hits == 1
        assert metrics.read_misses == 0
        # Served by the duty pair; home pair still asleep.
        assert controller.primaries[1].ops_completed == 0

    def test_cold_read_is_miss_with_spinup_penalty(self, sim):
        controller = build(sim)
        metrics = run_trace_base(
            controller,
            make_trace([(0.0, "r", 64 * KB, 64 * KB)]),
            drain=False,
        )
        assert metrics.read_misses == 1
        assert (
            metrics.read_response_time.max
            >= ULTRASTAR_36Z15.spin_up_time
        )
        assert controller.primaries[1].foreground_ops == 1

    def test_miss_populates_cache_for_next_read(self, sim):
        controller = build(sim)
        metrics = run_trace_base(
            controller,
            make_trace(
                [(0.0, "r", 64 * KB, 64 * KB), (30.0, "r", 64 * KB, 64 * KB)]
            ),
            drain=False,
        )
        assert metrics.read_misses == 1
        assert metrics.read_hits == 1

    def test_cache_disabled(self, sim):
        controller = build(sim, read_cache=False)
        metrics = run_trace_base(
            controller,
            make_trace(
                [(0.0, "r", 64 * KB, 64 * KB), (30.0, "r", 64 * KB, 64 * KB)]
            ),
            drain=False,
        )
        assert metrics.read_misses == 2

    def test_duty_pair_reads_always_hit(self, sim):
        controller = build(sim)
        metrics = run_trace_base(
            controller,
            make_trace([(0.0, "r", 0, 64 * KB)]),  # pair 0 == duty pair
            drain=False,
        )
        assert metrics.read_hits == 1

    def test_miss_woken_disk_returns_to_standby(self, sim):
        controller = build(sim, standby_return_s=2.0)
        run_trace_base(
            controller,
            make_trace([(0.0, "r", 64 * KB, 64 * KB)]),
            drain=False,
        )
        sim.run(until=sim.now + 30.0)
        assert controller.primaries[1].state is PowerState.STANDBY
        assert controller.primaries[1].power.spin_down_count == 1


class TestCentralizedDestage:
    def test_destage_rotates_duty_pair(self, sim):
        # 4MB regions, threshold 0.8 -> 52 writes of 64K trigger destage.
        controller = build(sim)
        run_trace(controller, write_burst(55, gap=0.05))
        assert controller.metrics.destage_cycles >= 1
        assert controller.metrics.rotations >= 1
        assert controller._duty_pair == 1

    def test_home_copies_consistent_after_destage(self, sim):
        controller = build(sim)
        run_trace(controller, write_burst(55, gap=0.05))
        assert controller.dirty_units_total() == 0
        controller.assert_consistent()

    def test_log_regions_reset_after_destage(self, sim):
        controller = build(sim)
        run_trace(controller, write_burst(55, gap=0.05))
        for region in controller.primary_logs + controller.mirror_logs:
            assert region.used == 0
            region.check_invariants()

    def test_non_duty_disks_asleep_after_cycle(self, sim):
        controller = build(sim)
        run_trace(controller, write_burst(55, gap=0.05))
        sim.run(until=sim.now + 60.0)
        duty = controller._duty_pair
        for i in range(2):
            if i == duty:
                continue
            assert controller.primaries[i].state is PowerState.STANDBY
            assert controller.mirrors[i].state is PowerState.STANDBY

    def test_destage_writes_both_home_copies(self, sim):
        controller = build(sim)
        # One write to pair 1, then drain: both P1 and M1 must be written.
        run_trace(
            controller, make_trace([(0.0, "w", 64 * KB, 64 * KB)])
        )
        assert controller.primaries[1].background_ops >= 1
        assert controller.mirrors[1].background_ops >= 1

    def test_early_woken_disk_stays_up_until_destage_starts(self, sim):
        """A read wakes a pair-1 disk; the log fills while it spins up, so
        the destage also waits for pair 1's other disk, which arrives more
        than ``standby_return_s`` after the early one drained to quiet.
        Sending the early disk back to STANDBY meanwhile left the destage
        polling for a fully spun-up array forever."""
        controller = build(sim, free_space_bytes=1 * MB)
        spec = [(0.0, "r", 64 * KB, 64 * KB)]
        spec += [(8.0 + i * 0.001, "w", 0, 64 * KB) for i in range(12)]
        sim.at(120.0, sim.stop)
        run_trace_base(controller, make_trace(spec), drain=False)
        assert controller.metrics.destage_cycles == 1
        assert controller._duty_pair == 1
        assert controller.primaries[1].power.spin_down_count == 0
        assert controller.mirrors[1].power.spin_down_count == 0

    def test_spin_counts_high(self, sim):
        """The Table I effect: every cycle spins the whole array."""
        controller = build(sim)
        run_trace(controller, write_burst(55, gap=0.05))
        total_transitions = sum(
            d.power.spin_cycle_count for d in controller.all_disks()
        )
        # The off-duty pair spins up for the destage and the outgoing duty
        # pair spins down after the rotation: >= 4 transitions per cycle.
        assert total_transitions >= 4


class TestEnergy:
    def test_power_far_below_all_idle_floor(self, sim):
        controller = build(sim)
        metrics = run_trace_base(
            controller, write_burst(20, gap=1.0), drain=False
        )
        # 2 disks idle + 2 standby < 4 idle.
        assert metrics.mean_power_w < 2 * 10.2 + 2 * 2.5 + 2.0
