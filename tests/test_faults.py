"""Fault-injection campaigns with the data-consistency oracle.

The core guarantee under test: for every scheme, a single disk failure at
*any* point of a write burst — followed by an online rebuild — loses zero
acknowledged blocks, as judged by the shadow block-store oracle.  Fault
times are drawn from seeded RNGs so the sweep is randomized but exactly
reproducible; one full scheme x fault-time campaign is pinned as a golden
file.
"""

import json
import os
import random

import pytest

from tests.conftest import make_trace, small_config, write_burst
from repro.core import build_controller, run_trace
from repro.faults import (
    ConsistencyOracle,
    FaultSchedule,
    FaultScheduleError,
    build_campaign,
    campaign_summary,
    fault_cell,
    run_campaign,
    run_faulted,
)
from repro.sim import Simulator

KB = 1024
ALL_SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")
PAIR_DISKS = ("P0", "M0", "P1", "M1")
GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "fault_campaign.json"
)


def mixed_trace(writes: int = 40, reads: int = 10, gap: float = 0.05):
    """Writes with a sprinkle of reads, exercising hit and miss paths."""
    spec = [
        (i * gap, "w", (i % 16) * 64 * KB, 64 * KB) for i in range(writes)
    ]
    spec += [
        (writes * gap + i * gap, "r", (i % 20) * 64 * KB, 64 * KB)
        for i in range(reads)
    ]
    return make_trace(spec, name="mixed")


# ----------------------------------------------------------------------
# Schedule specs
# ----------------------------------------------------------------------
class TestScheduleSpec:
    def test_round_trip(self):
        spec = "lse@2:P0:2048+16,slow@10:P1:4x20,fail@30:M0"
        schedule = FaultSchedule.parse(spec)
        assert schedule.spec() == spec
        assert FaultSchedule.parse(schedule.spec()) == schedule

    def test_norebuild_round_trip(self):
        schedule = FaultSchedule.parse("fail@30:M0:norebuild")
        assert not schedule.events[0].rebuild
        assert schedule.spec() == "fail@30:M0:norebuild"

    def test_events_sorted_by_time(self):
        schedule = FaultSchedule.parse("fail@30:M0,lse@2:P0:0+8")
        assert [e.time for e in schedule.events] == [2.0, 30.0]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "fail@30",
            "fail@-1:M0",
            "explode@30:M0",
            "slow@10:P1:4",
            "lse@5:P0:banana+8",
            "fail@30:M0:maybe",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultScheduleError):
            FaultSchedule.parse(bad)

    @pytest.mark.parametrize(
        "bad, problem",
        [
            ("fail@nan:M0", "fault time"),
            ("fail@inf:M0", "fault time"),
            ("slow@1:M0:-2x10", "slowdown factor"),
            ("slow@1:M0:0.5x10", "slowdown factor"),
            ("slow@1:M0:nanx10", "slowdown factor"),
            ("slow@1:M0:infx10", "slowdown factor"),
            ("slow@1:M0:3x-5", "slowdown duration"),
            ("slow@1:M0:3x0", "slowdown duration"),
            ("slow@1:M0:3xnan", "slowdown duration"),
            ("lse@1:M0:-8+8", "latent error"),
            ("lse@1:M0:8+0", "latent error"),
        ],
    )
    def test_out_of_range_values_rejected(self, bad, problem):
        """Times are finite, a slowdown inflates (factor >= 1) for a
        finite positive time, and a latent error covers real sectors."""
        with pytest.raises(FaultScheduleError, match=problem):
            FaultSchedule.parse(bad)

    def test_boundary_values_accepted(self):
        spec = "lse@0:M0:0+1,slow@0:M0:1x0.5"
        assert FaultSchedule.parse(spec).spec() == spec

    def test_random_single_failure_is_seed_deterministic(self):
        a = FaultSchedule.random_single_failure(7, PAIR_DISKS, 1.0, 9.0)
        b = FaultSchedule.random_single_failure(7, PAIR_DISKS, 1.0, 9.0)
        c = FaultSchedule.random_single_failure(8, PAIR_DISKS, 1.0, 9.0)
        assert a == b
        assert a.spec() == b.spec()
        assert c != a or c.spec() != a.spec()

    def test_random_soup_round_trips(self):
        soup = FaultSchedule.random_soup(3, PAIR_DISKS, 0.0, 10.0)
        assert FaultSchedule.parse(soup.spec()) == soup


# ----------------------------------------------------------------------
# The tentpole guarantee: seeded random single-fault sweeps
# ----------------------------------------------------------------------
class TestRandomizedSingleFault:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_random_failure_during_burst_loses_nothing(self, scheme):
        trace = write_burst(60, gap=0.05)
        for seed in range(3):
            rng = random.Random(1000 * seed + 17)
            schedule = FaultSchedule.random_single_failure(
                rng, PAIR_DISKS, 0.3, 2.8
            )
            result = run_faulted(scheme, small_config(), trace, schedule)
            assert result.consistent, (scheme, schedule.spec())
            assert result.lost_blocks_total == 0
            assert result.rebuilds
            assert result.rebuilds[0]["rebuild_time"] > 0
            # Every sweep ran: at-fault, post-rebuild, end.
            assert [c.event.split(":")[0] for c in result.checks] == [
                "at-fault",
                "post-rebuild",
                "end",
            ]

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_failure_without_rebuild_still_consistent(self, scheme):
        schedule = FaultSchedule.parse("fail@1.2:M0:norebuild")
        result = run_faulted(
            scheme, small_config(), write_burst(40, gap=0.05), schedule
        )
        assert result.consistent
        assert result.rebuilds == []

    def test_graid_log_disk_failure_destages_everything(self):
        schedule = FaultSchedule.single_failure("LOG", 1.0)
        result = run_faulted(
            "graid", small_config(), write_burst(40, gap=0.05), schedule
        )
        assert result.consistent
        assert result.rebuilds

    @pytest.mark.parametrize("scheme", ("rolo-p", "rolo-r"))
    def test_on_duty_mirror_failure_hands_off_logging(self, scheme):
        sim = Simulator()
        oracle = ConsistencyOracle()
        controller = build_controller(
            scheme, sim, small_config(), oracle=oracle
        )
        from repro.core.base import run_trace as run_trace_base

        run_trace_base(controller, write_burst(10), drain=False)
        duty_before = set(controller._on_duty)
        victim_index = next(iter(duty_before))
        controller.fail_disk(controller.mirrors[victim_index])
        assert victim_index not in controller._on_duty
        assert oracle.check("after-handoff").ok


# ----------------------------------------------------------------------
# Oracle-enabled runs change nothing
# ----------------------------------------------------------------------
class TestOracleIsPureObserver:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_metrics_byte_identical_with_oracle(self, scheme):
        trace = mixed_trace()
        plain = run_trace(
            build_controller(scheme, Simulator(), small_config()), trace
        )
        oracle = ConsistencyOracle()
        observed = run_trace(
            build_controller(
                scheme, Simulator(), small_config(), oracle=oracle
            ),
            trace,
        )
        assert plain.to_dict() == observed.to_dict()
        assert oracle.tracked_units > 0
        assert oracle.check("fault-free").ok


# ----------------------------------------------------------------------
# Transient faults
# ----------------------------------------------------------------------
class TestTransientFaults:
    def test_slowdown_inflates_response_time(self):
        trace = write_burst(20, gap=0.05, stride=0)
        clean = run_faulted(
            "raid10",
            small_config(),
            trace,
            FaultSchedule.parse("slow@50:P1:2x1"),  # never touched
        )
        slowed = run_faulted(
            "raid10",
            small_config(),
            trace,
            FaultSchedule.parse("slow@0:P0:10x30"),
        )
        assert (
            slowed.metrics.response_time.mean
            > clean.metrics.response_time.mean
        )
        kinds = [e["kind"] for e in slowed.events]
        assert kinds == ["slowdown-start", "slowdown-end"]

    def test_latent_error_surfaces_on_read_and_scrubs(self):
        trace = make_trace(
            [(0.0, "w", 0, 64 * KB), (2.0, "r", 0, 64 * KB)]
        )
        result = run_faulted(
            "raid10",
            small_config(),
            trace,
            FaultSchedule.parse("lse@1:P0:0+16"),
        )
        kinds = [e["kind"] for e in result.events]
        assert kinds == ["lse-planted", "media-error", "scrub-repair"]
        assert result.consistent

    def test_latent_error_unread_stays_latent(self):
        result = run_faulted(
            "raid10",
            small_config(),
            make_trace([(0.0, "w", 0, 64 * KB)]),
            FaultSchedule.parse("lse@1:P0:999936+8"),
        )
        kinds = [e["kind"] for e in result.events]
        assert kinds == ["lse-planted"]

    def test_unknown_disk_rejected(self):
        with pytest.raises(FaultScheduleError):
            run_faulted(
                "raid10",
                small_config(),
                write_burst(2),
                FaultSchedule.single_failure("Z9", 0.5),
            )


# ----------------------------------------------------------------------
# Campaign plumbing + the pinned golden campaign
# ----------------------------------------------------------------------
class TestCampaign:
    def test_duplicate_cells_computed_once(self):
        schedule = FaultSchedule.single_failure("M0", 10.0)
        cell = fault_cell(
            "raid10", "src2_2", schedule, scale=0.01, n_pairs=2
        )
        twin = fault_cell(
            "raid10", "src2_2", schedule, scale=0.01, n_pairs=2
        )
        assert cell.key() == twin.key()
        results = run_campaign([cell, twin])
        assert len(results) == 2
        assert results[0].to_dict() == results[1].to_dict()

    def test_golden_campaign(self):
        cells = build_campaign(
            schemes=ALL_SCHEMES,
            workloads=("src2_2",),
            fault_times=(15.0, 45.0),
            disks=("P0", "M0"),
            scale=0.01,
            n_pairs=4,
            seed=42,
        )
        summary = campaign_summary(cells, run_campaign(cells))
        assert summary["inconsistent_cells"] == 0
        if not os.path.exists(GOLDEN):  # pragma: no cover - first run
            os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
            with open(GOLDEN, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            pytest.fail(f"golden file created at {GOLDEN}; rerun")
        with open(GOLDEN) as fh:
            expected = json.load(fh)
        if summary != expected:
            actual_path = GOLDEN.replace(".json", ".actual.json")
            with open(actual_path, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            assert summary == expected, (
                f"campaign drifted from golden file; wrote {actual_path}"
            )
