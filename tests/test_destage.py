"""Unit tests for destage batching and the destage process."""

import pytest

from repro.core.destage import DestageProcess, coalesce_units
from repro.disk.disk import Disk, DiskOp, OpKind
from repro.disk.models import ULTRASTAR_36Z15
from repro.sim import Simulator

KB = 1024
UNIT = 64 * KB


class TestCoalesceUnits:
    def test_empty(self):
        assert coalesce_units([], UNIT, 4 * UNIT) == []

    def test_single(self):
        assert coalesce_units([0], UNIT, 4 * UNIT) == [(0, UNIT)]

    def test_adjacent_merge(self):
        units = [0, UNIT, 2 * UNIT]
        assert coalesce_units(units, UNIT, 8 * UNIT) == [(0, 3 * UNIT)]

    def test_gap_splits(self):
        units = [0, 2 * UNIT]
        assert coalesce_units(units, UNIT, 8 * UNIT) == [
            (0, UNIT),
            (2 * UNIT, UNIT),
        ]

    def test_batch_cap_respected(self):
        units = [i * UNIT for i in range(10)]
        batches = coalesce_units(units, UNIT, 3 * UNIT)
        assert all(nbytes <= 3 * UNIT for _, nbytes in batches)
        assert sum(nbytes for _, nbytes in batches) == 10 * UNIT

    def test_unsorted_input_handled(self):
        units = [2 * UNIT, 0, UNIT]
        assert coalesce_units(units, UNIT, 8 * UNIT) == [(0, 3 * UNIT)]

    def test_validation(self):
        with pytest.raises(ValueError):
            coalesce_units([0], 0, UNIT)
        with pytest.raises(ValueError):
            coalesce_units([0], UNIT, UNIT - 1)


def make_disks(sim, n=2):
    return [
        Disk(sim, ULTRASTAR_36Z15, f"D{i}") for i in range(n)
    ]


class TestDestageProcess:
    def test_copies_all_units(self, sim):
        src, dst = make_disks(sim)
        done = []
        process = DestageProcess(
            sim,
            "t",
            src,
            [dst],
            batches=[(0, 2 * UNIT), (4 * UNIT, UNIT)],
            unit_size=UNIT,
            idle_gated=False,
            idle_grace_s=0.0,
            on_complete=done.append,
        )
        process.start()
        sim.run()
        assert done == [process]
        assert process.bytes_moved == 3 * UNIT
        assert src.ops_completed == 2  # two batches read
        assert dst.ops_completed == 2

    def test_empty_units_complete_immediately(self, sim):
        src, dst = make_disks(sim)
        done = []
        process = DestageProcess(
            sim, "t", src, [dst], [], UNIT, False, 0.0,
            on_complete=done.append,
        )
        process.start()
        assert done == [process]
        assert process.done

    def test_multiple_targets_each_written(self, sim):
        src, d1, d2 = make_disks(sim, 3)
        process = DestageProcess(
            sim, "t", src, [d1, d2], [(0, UNIT)], UNIT, False, 0.0
        )
        process.start()
        sim.run()
        assert d1.ops_completed == 1
        assert d2.ops_completed == 1
        assert process.bytes_moved == UNIT

    def test_requires_target(self, sim):
        src, = make_disks(sim, 1)
        with pytest.raises(ValueError):
            DestageProcess(sim, "t", src, [], [(0, UNIT)], UNIT, False, 0.0)

    def test_idle_gated_waits_for_grace(self, sim):
        src, dst = make_disks(sim)
        process = DestageProcess(
            sim, "t", src, [dst], [(0, UNIT)], UNIT,
            idle_gated=True, idle_grace_s=0.5,
        )
        process.start()
        sim.run()
        assert process.done
        assert process.finished_at >= 0.5

    def test_idle_gated_defers_to_foreground(self, sim):
        """A foreground burst keeps resetting the grace window."""
        src, dst = make_disks(sim)
        process = DestageProcess(
            sim, "t", src, [dst], [(0, UNIT)], UNIT,
            idle_gated=True, idle_grace_s=0.2,
        )
        process.start()
        # A long foreground op (64 MiB ~ 1.2 s) arriving inside the grace
        # window: at timer expiry the disk is still busy, so the batch must
        # wait for the op to drain plus a fresh grace interval.
        sim.schedule(
            0.1,
            lambda: src.submit(DiskOp(OpKind.READ, 8_000_000, 64 * 1024 * KB)),
        )
        sim.run()
        assert process.done
        foreground_finish = 0.1 + ULTRASTAR_36Z15.transfer_time(
            64 * 1024 * KB
        )
        assert process.finished_at > foreground_finish + 0.2

    def test_background_priority_used(self, sim):
        src, dst = make_disks(sim)
        process = DestageProcess(
            sim, "t", src, [dst],
            [(0, UNIT), (4 * UNIT, UNIT), (8 * UNIT, UNIT)], UNIT,
            idle_gated=False, idle_grace_s=0.0,
        )
        process.start()
        sim.run()
        assert src.background_ops == 3
        assert src.foreground_ops == 0

    def test_remaining_batches(self, sim):
        src, dst = make_disks(sim)
        process = DestageProcess(
            sim, "t", src, [dst], [(0, UNIT), (4 * UNIT, UNIT)], UNIT,
            False, 0.0,
        )
        assert process.remaining_batches == 2
        process.start()
        sim.run()
        assert process.remaining_batches == 0

    def test_listeners_detached_after_completion(self, sim):
        src, dst = make_disks(sim)
        process = DestageProcess(
            sim, "t", src, [dst], [(0, UNIT)], UNIT,
            idle_gated=True, idle_grace_s=0.01,
        )
        process.start()
        sim.run()
        assert process.done
        # After completion the gate disks no longer reference the process.
        assert all(
            process._on_disk_idle not in d._idle_listeners
            for d in (src, dst)
        )
