"""Unit tests for destage batching and the destage process."""

import math

import pytest

from repro.core.destage import DestageProcess, coalesce_units, split_runs
from repro.disk.disk import Disk, DiskOp, OpKind
from repro.disk.models import ULTRASTAR_36Z15
from repro.sim import Simulator
from repro.sim.engine import Timer
from tests.conftest import entry_label

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
# Fast-forward horizon: a steady-state block ends exactly where the
# event path would let anything else run.
# ----------------------------------------------------------------------
MB = 1024 * KB
N_BATCHES = 12
#: A chain long enough that batch 40 and later complete inline
#: (``DestageProcess._solo``).
LONG = 100


def _copy_chain(sim, observe, n_targets=1, runs=None):
    """A copy chain of 4 MiB batches cut from ``runs`` (``N_BATCHES``
    contiguous batches by default); ``observe`` keeps it on the event
    path."""
    if runs is None:
        runs = [(0, N_BATCHES * 4 * MB)]
    disks = make_disks(sim, 1 + n_targets)
    if observe:
        for disk in disks:
            disk.op_observer = lambda disk, op: None
    process = DestageProcess(
        sim, "copy", disks[0], disks[1:], split_runs(runs, UNIT, 4 * MB),
        UNIT, idle_gated=False, idle_grace_s=0.0,
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
    """Everything a steady-state block may touch, pending heap entries
    included.

    ``events_processed`` is left out: the run loop adds its count when
    ``run`` returns, so compare it between runs, not inside one.
    """
    pending = sorted(
        (entry[0], entry[1], entry_label(entry))
        for entry in sim._heap
        if entry[2] is not None
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


def _completion_times(runs=None, disk=1):
    """The event path's completion times on the target (``disk=1``) or
    the source (``disk=0``)."""
    sim = Simulator()
    process, disks = _copy_chain(sim, observe=True, runs=runs)
    times = []
    disks[disk].op_observer = lambda _disk, _op: times.append(sim.now)
    process.start()
    sim.run()
    return times


def _long_chain(n_batches=LONG):
    return [(0, n_batches * 4 * MB)]


@pytest.fixture
def steady_completions(monkeypatch):
    """The completions ``DestageProcess._solo`` takes, one entry per read
    offered to it."""
    done = []
    solo = DestageProcess._solo

    def counting(self, op):
        done.append(solo(self, op))
        return done[-1]

    monkeypatch.setattr(DestageProcess, "_solo", counting)
    return done


#: Foreign-event times: around batch 5's write completion in the short
#: chain (1 ns either side), and around batch 45's in the long one, inside
#: a steady-state block (a float step either side).
FOREIGN = {
    "-1e-09": (None, 5, lambda t: t - 1e-9),
    "0.0": (None, 5, lambda t: t),
    "1e-09": (None, 5, lambda t: t + 1e-9),
    "steady-just-before": (
        _long_chain(), 45, lambda t: math.nextafter(t, -math.inf)
    ),
    "steady-at": (_long_chain(), 45, lambda t: t),
    "steady-just-after": (
        _long_chain(), 45, lambda t: math.nextafter(t, math.inf)
    ),
}


def _check_run_until(runs, until, batch, steady_completions):
    """``run(until=)`` then ``run()`` leaves the event path's states, and
    the whole run's."""

    def run(observe, stop_at):
        sim = Simulator()
        process, disks = _copy_chain(sim, observe, runs=runs)
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
    # The blocks before ``until`` ran every batch up to it.
    assert sum(steady_completions) >= 2 * (batch - 2)
    slow, _ = run(observe=True, stop_at=until)
    whole, _ = run(observe=False, stop_at=None)
    # Stopped in the event path's state: the pending completion is a
    # real heap entry at its reserved (time, seq).
    assert fast[1] == slow[1]
    assert fast[1][0][0] == until and fast[1][0][2]
    assert fast[2] == slow[2] == whole[1]
    inline = fast_process.inline_batches
    assert inline > 0
    # Each inline batch skipped its read's and its write's submit.  Where
    # ``until`` splits a write, that write is submitted and the next
    # batch's read is too, but that batch's write is not: it balances.
    assert len(fast[0]) + 2 * inline == len(slow[0])


class TestFastForwardHorizon:
    @pytest.mark.parametrize("place", list(FOREIGN))
    def test_foreign_event_at_a_batch_completion(
        self, place, steady_completions
    ):
        runs, batch, near = FOREIGN[place]
        at = near(_completion_times(runs)[batch])

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, runs=runs)
            log = []
            sim.at(at, lambda: log.append(_copy_state(sim, process, disks)))
            submits = _count_submits(disks)
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return log, end, process, len(submits)
        fast_log, fast_end, fast, fast_submits = run(observe=False)
        # The blocks before the foreign event ran every batch up to it.
        assert sum(steady_completions) >= 2 * (batch - 2)
        slow_log, slow_end, slow, slow_submits = run(observe=True)
        assert fast_log == slow_log and len(fast_log) == 1
        assert fast_end == slow_end
        assert fast.inline_batches > 0 and slow.inline_batches == 0
        # Handed back between batches: each inline batch skipped exactly
        # its read's and its write's submit.
        assert fast_submits + 2 * fast.inline_batches == slow_submits

    def test_run_until_inside_a_stretch(self, steady_completions):
        times = _completion_times()
        # Inside batch 7's read: the read is pending when the run stops.
        until = times[6] + (times[7] - times[6]) / 4
        _check_run_until(None, until, 6, steady_completions)

    @pytest.mark.parametrize(
        "near", [-math.inf, None, math.inf], ids=["before", "at", "after"]
    )
    def test_run_until_inside_a_steady_block(self, near, steady_completions):
        """``until`` at batch 45's write completion in a long chain, inside
        a steady-state block, or a float step either side of it."""
        until = _completion_times(_long_chain())[45]
        if near is not None:
            until = math.nextafter(until, near)
        _check_run_until(_long_chain(), until, 45, steady_completions)


    @pytest.mark.parametrize("every", [1, 2, 3, 5, 63, 64])
    def test_stride_points_inside_steady_blocks(
        self, every, steady_completions
    ):
        """A stride callback sees the event path's state whether its event
        is a batch's read or its write completion; odd strides end blocks
        on both.  At stride 2 every read meets a countdown of one, which
        leaves no room for its write: no block runs."""

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, runs=_long_chain())
            log = []
            sim.add_stride(
                every, lambda: log.append(_copy_state(sim, process, disks))
            )
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return log, end

        fast_log, fast_end = run(observe=False)
        if every > 2:
            assert sum(steady_completions) > LONG // 4
        else:
            assert not sum(steady_completions)
        slow_log, slow_end = run(observe=True)
        assert len(fast_log) == 2 * LONG // every
        assert fast_log == slow_log
        assert fast_end == slow_end

    @pytest.mark.parametrize(
        "touch", ["source", "target", "source-close", "target-close"]
    )
    def test_foreground_op_between_batches(self, touch, steady_completions):
        """Something touches the chain's source or target while batch 46's
        read is in service, inside the steady-state blocks of a long chain.
        A foreground op on the target rewrites batch 45's last sector and
        ends before the read does: the target is IDLE again with its head
        where the write left it, and only its idle start and power
        integration show that it ran.  Closing either disk's energy
        account (as a run's metrics window does) shows only in its power
        integration.  The loop must leave that read to the event path.  A
        foreground op on the source queues behind the read.  The touch and
        the chain's end see the event path's state."""
        runs = _long_chain()
        reads = _completion_times(runs, disk=0)
        writes = _completion_times(runs)
        at = writes[45] + (reads[46] - writes[45]) / 4
        head = 46 * 4 * MB // 512  # where batch 45's write ends

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, runs=runs)
            log = []

            def record(_op=None):
                log.append((sim.now, _copy_state(sim, process, disks)))

            on = 0 if touch.startswith("source") else 1
            if touch.endswith("close"):
                sim.at(at, lambda: (disks[on].close(), record()))
            else:
                kind = OpKind.READ if on == 0 else OpKind.WRITE
                sector = 0 if on == 0 else head - 8
                op = DiskOp(kind, sector, 4 * KB, on_complete=record)
                sim.at(at, disks[on].submit, op)
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return log, end, process

        fast_log, fast_end, fast = run(observe=False)
        assert sum(steady_completions) > LONG
        slow_log, slow_end, slow = run(observe=True)
        assert len(fast_log) == 1
        if touch == "target":
            assert fast_log[0][0] < reads[46]
        assert fast_log == slow_log
        assert fast_end == slow_end
        assert fast.done and fast.inline_batches > LONG // 2

    @pytest.mark.parametrize("chain", ["slowdown", "seek"])
    def test_steady_chain_matches_event_path(self, chain, steady_completions):
        """A chain whose disks slow down and recover mid-chain (scheduled
        events), and one whose runs leave gaps and short batches (seeks,
        another size), end in the event path's state, and every foreign
        event sees it too."""
        if chain == "slowdown":
            runs = _long_chain()
        else:
            runs = [
                (0, 30 * 4 * MB + 2 * UNIT),
                (512 * MB, 40 * 4 * MB),
                (256 * MB, 30 * 4 * MB + UNIT),
            ]
        times = _completion_times(runs)
        changes = []
        if chain == "slowdown":
            changes = [
                (times[30] + 0.01, 0, 2.0),
                (times[50], 1, 1.5),
                (times[70] - 0.02, 0, 1.0),
                (times[80], 1, 1.0),
            ]

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, runs=runs)
            log = []

            def slow_down(disk, factor):
                disk.slowdown_factor = factor
                log.append(_copy_state(sim, process, disks))

            for at, index, factor in changes:
                sim.at(at, slow_down, disks[index], factor)
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return log, end, process

        fast_log, fast_end, fast = run(observe=False)
        assert sum(steady_completions) > 2 * len(times) // 2
        slow_log, slow_end, slow = run(observe=True)
        assert fast_log == slow_log and len(fast_log) == len(changes)
        assert fast_end == slow_end
        assert fast.done and fast.inline_batches > 0

    @pytest.mark.parametrize(
        "on, interval",
        [(0, "long"), (0, "short"), (0, "period"), (1, "long"), (1, "short")],
        ids=[
            "source-long", "source-short", "source-period",
            "target-long", "target-short",
        ],
    )
    def test_standby_timer(self, on, interval, steady_completions):
        """A standby timer on the source (or the target), re-armed at each
        of its idles: far longer than a batch (steady-state blocks take
        it), shorter than a batch period (it fires inside every batch) and
        equal to one (its expiry ties one of the disk's completions, and
        fires first).  Every expiry and every ``run(until=)`` stop sees
        the event path's disk, power and heap state and the timer's live
        ``(time, seq)``."""
        runs = _long_chain()
        done = _completion_times(runs, disk=on)
        period = done[46] - done[45]
        seconds = {"long": 20 * period, "short": 0.75 * period}.get(
            interval, period
        )
        # The second stop falls after a block's last arm, before the next.
        stops = [
            done[10] + period / 3,
            done[20] + 0.75 * period,
            done[45],
            math.nextafter(done[70], math.inf),
        ]

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, runs=runs)

            def state():
                entry = timer._event
                live = None if entry is None else (entry[0], entry[1])
                return _copy_state(sim, process, disks), live

            fires = []
            timer = Timer(sim, seconds, lambda: fires.append(state()))
            disks[on].standby_timer = timer
            process.start()
            stopped = []
            for until in stops + [None]:
                sim.run(until=until)
                stopped.append((state(), sim.events_processed))
            return fires, stopped, process

        fast_fires, fast_stopped, fast = run(observe=False)
        slow_fires, slow_stopped, slow = run(observe=True)
        assert fast_fires == slow_fires
        assert fast_stopped == slow_stopped
        assert fast.done and fast.inline_batches > 0
        fired_at = [fire[0][0] for fire in fast_fires]
        if interval == "long":
            # Once, after the chain; the blocks took nearly every batch.
            assert len(fired_at) == 1
            assert sum(steady_completions) > 2 * (LONG - 10)
        elif interval == "short":
            assert len(fired_at) >= LONG - 1
        else:
            assert set(fired_at) & set(done)

    @pytest.mark.parametrize("every", [61, 62])
    def test_standby_timer_set_inside_a_stretch(self, every):
        """A stride callback gives the source an unarmed standby timer
        shorter than a write at a read's or a write's completion: the
        next steady-state block must not take a write its first arm's
        expiry lands inside."""

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, runs=_long_chain())
            fires = []
            timer = Timer(
                sim, 0.05,
                lambda: fires.append(_copy_state(sim, process, disks)),
            )

            def set_timer():
                disks[0].standby_timer = timer

            sim.add_stride(every, set_timer)
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return fires, end

        fast_fires, fast_end = run(observe=False)
        slow_fires, slow_end = run(observe=True)
        assert len(fast_fires) >= LONG // 2
        assert fast_fires == slow_fires
        assert fast_end == slow_end

    @pytest.mark.parametrize("listener_on", [0, 1])
    @pytest.mark.parametrize("n_targets", [1, 2])
    def test_short_idle_timer_forces_a_hand_back(self, listener_on, n_targets):
        """An idle listener arming a timer shorter than one op (RoLo-E's
        sleep timer, shortened) lands inside every batch: a chain with an
        idle listener (or two targets) stays on the event path, and every
        expiry sees its state."""

        def run(observe):
            sim = Simulator()
            process, disks = _copy_chain(sim, observe, n_targets)
            log = []
            timer = Timer(
                sim, 0.01, lambda: log.append(_copy_state(sim, process, disks))
            )
            disks[listener_on].add_idle_listener(lambda disk: timer.arm())
            process.start()
            sim.run()
            end = (_copy_state(sim, process, disks), sim.events_processed)
            return log, end
        fast_log, fast_end = run(observe=False)
        slow_log, slow_end = run(observe=True)
        assert len(fast_log) >= N_BATCHES - 1
        assert fast_log == slow_log
        assert fast_end == slow_end

    @pytest.mark.parametrize("action", ["abort", "stop"])
    def test_listener_abort_or_stop_mid_stretch(self, action):
        """A listener that aborts the chain or stops the run mid-chain
        leaves the state the event path leaves."""

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
        assert fast.aborted == slow.aborted == (action == "abort")
