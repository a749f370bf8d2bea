"""Tests for disk failure recovery (paper §III-C / §III-D)."""

import tracemalloc

import pytest

from tests.conftest import small_config, write_burst
from tests.test_properties import per_unit_coalesce
from repro.core import build_controller, plan_recovery, run_trace
from repro.core.base import run_trace as run_trace_base
from repro.core.config import ArrayConfig
from repro.core.recovery import RecoveryError, RecoveryProcess
from repro.disk.disk import Disk
from repro.disk.models import ULTRASTAR_36Z15
from repro.sim import Simulator

KB = 1024
MB = 1024 * KB


def primed(sim, scheme, writes=10, **overrides):
    """A controller that has absorbed some writes (no drain)."""
    controller = build_controller(scheme, sim, small_config(**overrides))
    run_trace_base(controller, write_burst(writes), drain=False)
    return controller


class TestPlans:
    def test_raid10_primary_failure_wakes_nothing(self, sim):
        controller = primed(sim, "raid10")
        plan = plan_recovery(controller, controller.primaries[0])
        assert plan.source is controller.mirrors[0]
        assert plan.disks_woken == 0

    def test_raid10_mirror_failure_uses_primary(self, sim):
        controller = primed(sim, "raid10")
        plan = plan_recovery(controller, controller.mirrors[1])
        assert plan.source is controller.primaries[1]
        assert plan.disks_woken == 0

    def test_graid_primary_failure_wakes_all_mirrors(self, sim):
        """The paper's claim: GRAID must spin up every mirror."""
        controller = primed(sim, "graid")
        plan = plan_recovery(controller, controller.primaries[0])
        assert plan.disks_woken == len(controller.mirrors)

    def test_graid_mirror_failure_wakes_nothing(self, sim):
        controller = primed(sim, "graid")
        plan = plan_recovery(controller, controller.mirrors[0])
        assert plan.disks_woken == 0
        assert plan.source is controller.primaries[0]

    def test_graid_log_failure_rebuilds_dirty_volume(self, sim):
        controller = primed(sim, "graid", writes=6)
        plan = plan_recovery(controller, controller.log_disk)
        assert plan.role == "log"
        assert plan.rebuild_bytes == 6 * 64 * KB

    def test_rolo_p_primary_failure_wakes_log_holders_only(self, sim):
        controller = primed(sim, "rolo-p", writes=4)
        # Writes went to pair 0 and were logged on on-duty mirror 0.
        plan = plan_recovery(controller, controller.primaries[0])
        # M0 is the pair mirror AND the live log holder; it is already
        # spinning (on duty) so nothing sleeps that must wake.
        assert plan.source is controller.mirrors[0]
        assert plan.disks_woken <= 1

    def test_rolo_p_wakes_fewer_disks_than_graid(self, sim):
        """The §III-C comparison behind Fig. 9's RoLo-P > GRAID."""
        rolo = primed(Simulator(), "rolo-p", writes=10)
        graid = primed(Simulator(), "graid", writes=10)
        rolo_plan = plan_recovery(rolo, rolo.primaries[0])
        graid_plan = plan_recovery(graid, graid.primaries[0])
        assert rolo_plan.disks_woken < graid_plan.disks_woken

    def test_rolo_r_primary_failure_needs_no_stale_mirrors(self, sim):
        controller = primed(sim, "rolo-r", writes=4)
        plan = plan_recovery(controller, controller.primaries[1])
        # Third copies live on the always-on logger primary.
        assert all(d is controller.mirrors[1] for d in plan.wake)

    def test_rolo_p_on_duty_mirror_failure_rotates_logger(self, sim):
        controller = primed(sim, "rolo-p", writes=4)
        assert controller._on_duty == [0]
        plan = plan_recovery(controller, controller.mirrors[0])
        assert plan.logging_continues
        assert controller._on_duty == [1]  # §III-D continuity

    def test_rolo_p_off_duty_mirror_failure_no_rotation(self, sim):
        controller = primed(sim, "rolo-p", writes=4)
        plan = plan_recovery(controller, controller.mirrors[1])
        assert controller._on_duty == [0]
        assert plan.source is controller.primaries[1]

    def test_rolo_e_failure_wakes_partner_only(self, sim):
        controller = primed(sim, "rolo-e", writes=4)
        plan = plan_recovery(controller, controller.primaries[1])
        assert plan.source is controller.mirrors[1]
        assert plan.disks_woken == 1  # partner was STANDBY

    def test_rolo_e_duty_disk_failure_partner_awake(self, sim):
        controller = primed(sim, "rolo-e", writes=4)
        plan = plan_recovery(controller, controller.mirrors[0])
        assert plan.source is controller.primaries[0]
        assert plan.disks_woken == 0

    def test_unknown_disk_rejected(self, sim):
        controller = primed(sim, "raid10")
        stranger = Disk(sim, ULTRASTAR_36Z15, "stranger")
        with pytest.raises(RecoveryError):
            plan_recovery(controller, stranger)


class TestRecoveryProcess:
    def test_rebuild_completes_and_reports_time(self, sim):
        controller = primed(sim, "raid10")
        plan = plan_recovery(controller, controller.primaries[0])
        done = []
        process = RecoveryProcess(
            sim, controller, plan, on_complete=done.append
        )
        process.start()
        sim.run()
        assert done == [process]
        assert process.done
        assert process.rebuild_time > 0
        assert (
            process.replacement.bytes_transferred == plan.rebuild_bytes
        )

    def test_rebuild_time_scales_with_volume(self, sim):
        controller = primed(sim, "raid10")
        plan = plan_recovery(controller, controller.primaries[0])
        small = plan
        small.rebuild_bytes = 16 * MB
        p1 = RecoveryProcess(sim, controller, small)
        p1.start()
        sim.run()
        t_small = p1.rebuild_time

        sim2 = Simulator()
        controller2 = primed(sim2, "raid10")
        plan2 = plan_recovery(controller2, controller2.primaries[0])
        plan2.rebuild_bytes = 64 * MB
        p2 = RecoveryProcess(sim2, controller2, plan2)
        p2.start()
        sim2.run()
        assert p2.rebuild_time > 2 * t_small

    def test_rebuild_time_in_progress_rejected(self, sim):
        controller = primed(sim, "raid10")
        plan = plan_recovery(controller, controller.primaries[0])
        plan.rebuild_bytes = 16 * MB
        process = RecoveryProcess(sim, controller, plan)
        with pytest.raises(RecoveryError):
            _ = process.rebuild_time

    def test_rebuild_wakes_planned_disks(self, sim):
        controller = primed(sim, "graid")
        plan = plan_recovery(controller, controller.primaries[0])
        plan.rebuild_bytes = 16 * MB
        process = RecoveryProcess(sim, controller, plan)
        process.start()
        sim.run()
        for mirror in controller.mirrors:
            assert mirror.power.spin_up_count >= 1


def _raid10_primary(config):
    controller = build_controller("raid10", Simulator(), config)
    return controller, plan_recovery(controller, controller.primaries[0])


def _graid_log(config):
    controller = build_controller("graid", Simulator(), config)
    run_trace_base(controller, write_burst(300), drain=False)
    return controller, plan_recovery(controller, controller.log_disk)


class TestRebuildSetupCost:
    """A rebuild is one extent: set-up allocates O(batches), not O(units)."""

    @pytest.mark.parametrize(
        "make_plan, config",
        [
            (_raid10_primary, ArrayConfig(n_pairs=2)),
            (_raid10_primary, ArrayConfig(n_pairs=2).scaled(0.01)),
            (_graid_log, ArrayConfig(n_pairs=2)),
        ],
        ids=["raid10-primary", "raid10-primary-scaled", "graid-log"],
    )
    def test_construction_allocates_under_1mib(self, make_plan, config):
        controller, plan = make_plan(config)
        unit = config.stripe_unit
        if plan.role == "log":
            assert plan.rebuild_bytes == controller.dirty_units_total() * unit
            assert plan.rebuild_bytes // unit == 300
        else:
            assert plan.rebuild_bytes // unit >= 170_000
        tracemalloc.start()
        try:
            rebuild = RecoveryProcess(controller.sim, controller, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < MB
        n_units = max(1, plan.rebuild_bytes // unit)
        assert rebuild._process._batches == per_unit_coalesce(
            [i * unit for i in range(n_units)], unit, 4 * MB
        )
