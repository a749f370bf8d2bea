"""Unit tests for destage batching and the destage process."""

import pytest

from repro.core.destage import DestageProcess, coalesce_units, split_runs
from repro.disk.disk import Disk, DiskOp, OpKind
from repro.disk.models import ULTRASTAR_36Z15
from repro.sim import Simulator
from repro.sim.engine import Timer

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


# ----------------------------------------------------------------------
# Fast-forward horizon: a stretch hands back exactly where the event
# path would let anything else run.
# ----------------------------------------------------------------------
MB = 1024 * KB
N_BATCHES = 12


def _copy_chain(sim, observe, n_targets=1):
    """A 4 MiB-batch copy chain; ``observe`` keeps it on the event path."""
    disks = make_disks(sim, 1 + n_targets)
    if observe:
        for disk in disks:
            disk.op_observer = lambda disk, op: None
    process = DestageProcess(
        sim, "copy", disks[0], disks[1:],
        split_runs([(0, N_BATCHES * 4 * MB)], UNIT, 4 * MB), UNIT,
        idle_gated=False, idle_grace_s=0.0,
    )
    return process, disks


def _disk_state(disk):
    power = disk.power
    return (
        disk.ops_completed, disk.bytes_transferred, disk.busy_time,
        disk.background_ops, disk._head_sector, disk.busy,
        disk.queue_depth, list(disk.idle_gap_histogram.counts),
        disk._idle_since, power.state.value, power.energy_joules,
        power._last_time,
        sorted((s.value, t) for s, t in power.state_durations.items()),
    )


def _copy_state(sim, process, disks):
    """Everything a stretch may touch, pending heap entries included.

    ``events_processed`` is left out: the run loop adds its count when
    ``run`` returns, so compare it between runs, not inside one.
    """
    pending = sorted(
        (time, seq, event.label)
        for time, seq, event in sim._heap
        if not event.cancelled
    )
    return (
        sim.now, sim._seq, pending,
        process.bytes_moved, process._next_batch, process._in_flight,
        process.done, [_disk_state(disk) for disk in disks],
    )


def _count_submits(disks):
    """Record the kind of every op submitted to ``disks``."""
    submits = []
    for disk in disks:
        submit = disk.submit
        disk.submit = lambda op, submit=submit: (
            submits.append(op.kind), submit(op)
        )[1]
    return submits


def _write_completion_times():
    sim = Simulator()
    process, disks = _copy_chain(sim, observe=True)
    times = []
    disks[1].op_observer = lambda disk, op: times.append(sim.now)
    process.start()
    sim.run()
    return times


class TestFastForwardHorizon:
    @pytest.mark.parametrize("offset", [-1e-9, 0.0, 1e-9])
    def test_foreign_event_at_a_batch_completion(self, offset):
        at = _write_completion_times()[5] + offset

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe)
            log = []
            sim.at(at, lambda: log.append(_copy_state(sim, process, disks)))
            submits = _count_submits(disks)
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return log, end, process, len(submits)
        fast_log, fast_end, fast, fast_submits = run(observe=False)
        slow_log, slow_end, slow, slow_submits = run(observe=True)
        assert fast_log == slow_log and len(fast_log) == 1
        assert fast_end == slow_end
        assert fast.inline_batches > 0 and slow.inline_batches == 0
        # Handed back between batches: each inline batch skipped exactly
        # its read's and its write's submit.
        assert fast_submits + 2 * fast.inline_batches == slow_submits

    def test_run_until_inside_a_stretch(self):
        times = _write_completion_times()
        # Inside batch 7's read: the read is pending when the run stops.
        until = times[6] + (times[7] - times[6]) / 4

        def run(observe, stop_at):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe)
            submits = _count_submits(disks)
            process.start()
            states = [submits]
            if stop_at is not None:
                sim.run(until=stop_at)
                states.append(
                    (_copy_state(sim, process, disks), sim.events_processed)
                )
            sim.run()
            states.append(
                (_copy_state(sim, process, disks), sim.events_processed)
            )
            return states, process
        fast, fast_process = run(observe=False, stop_at=until)
        slow, _ = run(observe=True, stop_at=until)
        whole, _ = run(observe=False, stop_at=None)
        # Stopped in the event path's state: the pending completion is a
        # real heap entry at its reserved (time, seq).
        assert fast[1] == slow[1]
        assert fast[1][0][0] == until and fast[1][0][2]
        assert fast[2] == slow[2] == whole[1]
        inline = fast_process.inline_batches
        assert inline > 0
        assert len(fast[0]) + 2 * inline == len(slow[0])

    @pytest.mark.parametrize("listener_on", [0, 1])
    @pytest.mark.parametrize("n_targets", [1, 2])
    def test_short_idle_timer_forces_a_hand_back(self, listener_on, n_targets):
        """An idle listener arming a timer shorter than one op (RoLo-E's
        sleep timer, shortened) lands inside every batch: the stretch
        hands the pending completion back at its reserved (time, seq)."""

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, n_targets)
            log = []
            timer = Timer(
                sim, 0.01, lambda: log.append(_copy_state(sim, process, disks))
            )
            disks[listener_on].add_idle_listener(lambda disk: timer.arm())
            submits = _count_submits(disks)
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return log, end, submits
        fast_log, fast_end, fast_submits = run(observe=False)
        slow_log, slow_end, slow_submits = run(observe=True)
        assert len(fast_log) >= N_BATCHES - 1
        assert fast_log == slow_log
        assert fast_end == slow_end
        # The copies that went inline skipped their submits.
        assert len(fast_submits) < len(slow_submits)

    @pytest.mark.parametrize("action", ["abort", "stop"])
    def test_listener_abort_or_stop_mid_stretch(self, action):
        """A listener that aborts the chain or stops the run inside a
        stretch leaves the state the event path leaves."""

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe)
            idles = []

            def listener(disk):
                idles.append(sim.now)
                if len(idles) == 6:
                    process.abort() if action == "abort" else sim.stop()

            disks[1].add_idle_listener(listener)
            process.start()
            sim.run()
            mid = (_copy_state(sim, process, disks), sim.events_processed)
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return mid, end, process

        fast_mid, fast_end, fast = run(observe=False)
        slow_mid, slow_end, slow = run(observe=True)
        assert fast_mid == slow_mid and fast_end == slow_end
        assert fast.inline_batches > 0
        assert fast.aborted == slow.aborted == (action == "abort")
