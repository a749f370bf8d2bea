"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim import SimulationError, Simulator, Timer


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_at_in_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.at(9.0, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_nan_and_negative_infinite_times_rejected(bad):
    """NaN compares false both ways, so only ``not time >= now`` catches
    it; a NaN entry in the heap would fire out of order."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim.at(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim._push(bad, lambda: None, ())
    assert sim.heap_size == 0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, event.cancel)
    sim.run()
    assert fired == []


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    # Remaining event still fires on a subsequent run.
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek() == 2.0


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7


class TestTimer:
    def test_fires_after_interval(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.arm()
        sim.run()
        assert fired == [2.0]

    def test_rearm_restarts_countdown(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.arm()
        sim.schedule(1.0, timer.arm)  # restart at t=1
        sim.run()
        assert fired == [3.0]

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.arm()
        sim.schedule(1.0, timer.cancel)
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_armed_property(self):
        sim = Simulator()
        timer = Timer(sim, 1.0, lambda: None)
        assert not timer.armed
        timer.arm()
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_negative_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Timer(sim, -1.0, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_interval_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Timer(sim, bad, lambda: None)


class TestRunEdgeCases:
    def test_stop_from_inside_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: (fired.append(2), sim.stop()))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run()
        # The stopping event finishes; later events stay queued.
        assert fired == [1, 2]
        assert sim.now == 2.0
        assert sim.peek() == 3.0
        # A second run() resumes from where stop() left off.
        sim.run()
        assert fired == [1, 2, 3]
        assert sim.now == 3.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.at(t, fired.append, t)
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5  # clock advanced to the horizon exactly
        assert sim.events_processed == 2
        # Resume: remaining events fire at their original times.
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert sim.now == 4.0
        assert sim.events_processed == 4

    def test_run_until_exact_event_time_inclusive(self):
        sim = Simulator()
        fired = []
        sim.at(2.0, fired.append, 2.0)
        sim.at(2.0 + 1e-9, fired.append, "later")
        sim.run(until=2.0)
        assert fired == [2.0]
        assert sim.now == 2.0

    def test_cancelled_events_not_counted(self):
        sim = Simulator()
        kept = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        dropped = [sim.schedule(0.5, lambda: None) for _ in range(5)]
        for event in dropped:
            event.cancel()
        sim.run()
        assert sim.events_processed == len(kept)
        assert sim.now == 1.0

    def test_cancelled_events_not_counted_via_step(self):
        sim = Simulator()
        event = sim.schedule(0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.step() is True
        assert sim.events_processed == 1
        assert sim.now == 1.0

    def test_stop_during_run_until_still_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=10.0)
        assert fired == []
        assert sim.now == 10.0  # horizon still honored after a stop


class TestHeapHygiene:
    def test_compact_removes_cancelled_entries(self):
        sim = Simulator()
        kept = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        dropped = [sim.schedule(0.5, lambda: None) for _ in range(6)]
        for event in dropped:
            event.cancel()
        assert sim.heap_size == 10
        assert sim.cancelled_pending == 6
        removed = sim.compact()
        assert removed == 6
        assert sim.heap_size == len(kept)
        assert sim.cancelled_pending == 0
        # Surviving events still fire in order after the in-place rebuild.
        sim.run()
        assert sim.events_processed == len(kept)
        assert sim.now == 4.0

    def test_compact_is_noop_without_cancellations(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.compact() == 0
        assert sim.heap_size == 1

    def test_timer_rearm_storm_keeps_heap_bounded(self):
        # Regression: before automatic compaction, every re-arm of a
        # long-interval Timer left a cancelled entry in the heap for the
        # whole run, so N re-arms meant an O(N) heap.  The expiries (at
        # +1e4 s) never reach the heap top during the storm, so only
        # compaction can collect them.
        sim = Simulator()
        fired = []
        timer = Timer(sim, 10_000.0, lambda: fired.append(sim.now))
        state = {"count": 0, "peak": 0}

        def tick():
            state["count"] += 1
            timer.arm()
            if sim.heap_size > state["peak"]:
                state["peak"] = sim.heap_size
            if state["count"] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert state["count"] == 20_000
        assert state["peak"] <= 2_048  # bounded, not O(20k)
        assert sim.compactions > 0
        assert fired == [pytest.approx(19.999 + 10_000.0)]

    def test_compact_inside_callback_keeps_run_loop_consistent(self):
        # compact() mutates the heap list in place; triggering it from a
        # callback must not desynchronize the running event loop.
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(5.0, fired.append, "doomed") for _ in range(8)]

        def purge():
            for event in doomed:
                event.cancel()
            sim.compact()
            fired.append("purged")

        sim.schedule(1.0, purge)
        sim.schedule(2.0, fired.append, "after")
        sim.run()
        assert fired == ["purged", "after"]
        assert sim.now == 2.0

    def test_stale_handle_cancels_nothing(self):
        # A handle outlives its event: cancelling it after the event fired
        # must neither cancel a later event nor count as pending.
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, "f")
        sim.run()
        second = sim.schedule(1.0, fired.append, "g")
        assert second is not first
        first.cancel()
        assert not first.cancelled and not second.cancelled
        assert sim.cancelled_pending == 0
        sim.run()
        assert fired == ["f", "g"]

    def test_handle_cancelled_inside_its_own_callback_is_a_noop(self):
        # At its own instant a fired event is no longer in the heap.
        sim = Simulator()
        handles = []
        handles.append(sim.schedule(1.0, lambda: handles[0].cancel()))
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancelled_pending == 0
        assert sim.events_processed == 2

    def test_cancelled_census_decrements_on_collection(self):
        sim = Simulator()
        events = [sim.schedule(0.5, lambda: None) for _ in range(3)]
        sim.schedule(1.0, lambda: None)
        for event in events:
            event.cancel()
        assert sim.cancelled_pending == 3
        sim.run()
        assert sim.cancelled_pending == 0
        assert sim.events_processed == 1


class TestStride:
    """``add_stride``: a callback before every n-th event, no call between."""

    @staticmethod
    def _ticks(sim, n_events=10):
        seen = []
        for i in range(n_events):
            sim.at(float(i), lambda i=i: seen.append(("event", i)))
        sim.add_stride(3, lambda: seen.append(("tick", sim.now)))
        return seen

    def test_fires_before_every_nth_event_in_the_strided_loop(self):
        sim = Simulator()
        seen = self._ticks(sim)
        assert sim._run_loop.__func__ is Simulator._run_strided
        assert not hasattr(sim, "event_hook")
        sim.run(until=7.5)
        sim.run()
        assert [s for s in seen if s[0] == "tick"] == [
            ("tick", 2.0), ("tick", 5.0), ("tick", 8.0)
        ]
        assert seen.index(("tick", 2.0)) == seen.index(("event", 2)) - 1

    def test_same_ticks_under_observers_and_step(self):
        """A second stride, even one added mid-run out of phase, leaves
        the first one's ticks where they were, as does stepping."""
        other = []

        def run(drive):
            sim = Simulator()
            seen = self._ticks(sim)
            drive(sim)
            return seen

        def shared(sim):
            sim.add_stride(4, lambda: other.append(sim.now))
            sim.run(until=4.5)
            assert sim._stride_fn == sim._stride_fire
            sim.add_stride(5, lambda: other.append(-sim.now))
            sim.run()

        def stepped(sim):
            while sim.step():
                pass

        plain = run(Simulator.run)
        assert run(shared) == plain
        assert other == [3.0, 7.0, -9.0]
        assert run(stepped) == plain

    def test_clear_restores_the_nohook_loop(self):
        sim = Simulator()

        def first():
            pass

        def second():
            pass

        sim.add_stride(2, first)
        sim.add_stride(2, second)
        assert sim._stride_fn == sim._stride_fire
        sim.remove_stride(first)
        assert sim._stride_fn is second
        sim.remove_stride(first)  # no longer there: a no-op
        sim.remove_stride(second)
        assert sim._stride_fn is None
        assert sim._run_loop.__func__ is Simulator._run_nohook
        with pytest.raises(SimulationError):
            sim.add_stride(0, first)
