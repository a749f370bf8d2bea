"""Disk power accounting: tracer attach/detach and inline-path float identity.

A disk integrates its ACTIVE<->IDLE toggle inline on the accountant's
fields and calls ``EnergyAccountant.transition`` only for spin, standby,
failure and close.  The property test drives random op streams through a
plain, an op-observed (the other completion body) and a traced disk, and
replays every state change the disk reported through a fresh accountant's
``transition``; every accounting float must agree bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.disk import Disk, DiskOp, OpKind, Priority, Scheduler
from repro.disk.models import ULTRASTAR_36Z15
from repro.disk.power import EnergyAccountant, PowerState
from repro.obs import RecordingTracer
from repro.sim import Simulator

KB = 1024
MB = 1024 * KB


def _power_spans(tracer):
    return [
        (event.ts, event.name, event.dur)
        for event in tracer.events
        if event.category == "power"
    ]


# ----------------------------------------------------------------------
# Disk.tracer setter: attach and detach are symmetric
# ----------------------------------------------------------------------
class TestTracerAttachDetach:
    def test_detached_tracer_is_unhooked_from_power_transitions(self):
        sim = Simulator()
        tracer = RecordingTracer()
        disk = Disk(sim, ULTRASTAR_36Z15, "D", tracer=tracer)
        disk.tracer = None
        assert disk.power.on_transition is None
        disk.submit(DiskOp(OpKind.READ, 0, 4 * KB))
        sim.run()
        disk.request_spin_down()
        sim.run()
        assert disk.ops_completed == 1
        assert disk.state is PowerState.STANDBY
        # Only the construction-time seed reached the detached tracer.
        tracer.finish(sim.now)
        assert _power_spans(tracer) == [(0.0, "idle", sim.now)]

    def test_late_attached_tracer_records_power_states(self):
        sim = Simulator()
        disk = Disk(sim, ULTRASTAR_36Z15, "D")
        sim.run(until=2.0)
        tracer = RecordingTracer()
        disk.tracer = tracer
        assert disk.power.on_transition is not None
        done = []
        disk.submit(DiskOp(OpKind.READ, 0, 4 * KB, on_complete=done.append))
        sim.run()
        tracer.finish(sim.now)
        finish = done[0].finish_time
        assert _power_spans(tracer) == [
            (2.0, "idle", 0.0),
            (2.0, "active", finish - 2.0),
            (finish, "idle", 0.0),
        ]
        assert tracer.counts["disk_op"] == 1

    def test_late_attach_matches_construction_attach(self):
        def run(late):
            sim = Simulator()
            tracer = RecordingTracer()
            disk = Disk(
                sim, ULTRASTAR_36Z15, "D", tracer=None if late else tracer
            )
            if late:
                disk.tracer = tracer
            disk.submit(DiskOp(OpKind.WRITE, 500, 64 * KB))
            sim.run()
            disk.request_spin_down()
            sim.run()
            tracer.finish(sim.now)
            return tracer.records

        assert run(late=True) == run(late=False)

    def test_reattaching_the_same_tracer_does_not_reseed(self):
        sim = Simulator()
        tracer = RecordingTracer()
        disk = Disk(sim, ULTRASTAR_36Z15, "D", tracer=tracer)
        disk.tracer = tracer
        tracer.finish(sim.now)
        assert _power_spans(tracer) == [(0.0, "idle", 0.0)]


# ----------------------------------------------------------------------
# Inline ACTIVE<->IDLE accounting == EnergyAccountant.transition, exactly
# ----------------------------------------------------------------------
_gap = st.one_of(st.just(0.0), st.floats(1e-6, 0.3, allow_nan=False))

_op = st.tuples(
    st.just("op"),
    _gap,
    st.sampled_from(OpKind),
    st.sampled_from(Priority),
    # None: start where the previously submitted op ended (head-contiguous
    # whenever the disk served that op last).
    st.one_of(st.none(), st.integers(0, 4_000_000)),
    st.one_of(
        st.sampled_from([512, 4 * KB, 64 * KB, 1 * MB]),
        st.integers(1, 4096).map(lambda sectors: sectors * 512),
    ),
    st.booleans(),
)
_power = st.tuples(st.sampled_from(["down", "up"]), _gap)
_slow = st.tuples(st.just("slow"), _gap, st.sampled_from([1.0, 1.5, 3.0]))

_steps = st.lists(
    st.one_of(_op, _op, _op, _power, _slow), min_size=1, max_size=40
)


def _accounting(power):
    return {
        "energy_joules": power.energy_joules.hex(),
        "state_durations": {
            state.value: seconds.hex()
            for state, seconds in power.state_durations.items()
        },
        "spin_up_count": power.spin_up_count,
        "spin_down_count": power.spin_down_count,
    }


def _replay(steps, scheduler, mode):
    """Run ``steps`` on one disk; return its accounting state.

    A ``traced`` run also returns, under ``"reference"``, the accounting
    of a fresh accountant fed the disk's reported state changes through
    ``EnergyAccountant.transition``.
    """
    sim = Simulator()
    tracer = RecordingTracer() if mode == "traced" else None
    disk = Disk(sim, ULTRASTAR_36Z15, "D", scheduler=scheduler, tracer=tracer)
    if mode == "observed":
        disk.op_observer = lambda d, op: None
    assert (disk.power.on_transition is None) == (mode != "traced")
    changes = []
    if mode == "traced":
        trace_power = disk.power.on_transition

        def record(now, old, new):
            changes.append((now, new))
            trace_power(now, old, new)

        disk.power.on_transition = record
    now = 0.0
    next_sector = 0
    for step in steps:
        now += step[1]
        if step[0] == "op":
            _, _, kind, priority, sector, nbytes, hint = step
            if sector is None:
                sector = next_sector
            next_sector = sector + nbytes // 512
            sim.at(
                now,
                disk.submit,
                DiskOp(kind, sector, nbytes, priority, sequential_hint=hint),
            )
        elif step[0] == "down":
            sim.at(now, disk.request_spin_down)
        elif step[0] == "up":
            sim.at(now, disk.request_spin_up)
        else:
            sim.at(now, setattr, disk, "slowdown_factor", step[2])
    sim.run()
    disk.close()
    result = _accounting(disk.power)
    result.update(
        busy_time=disk.busy_time.hex(),
        idle_gaps=list(disk.idle_gap_histogram.counts),
        head_sector=disk._head_sector,
        ops_completed=disk.ops_completed,
        now=sim.now.hex(),
    )
    if mode == "traced":
        reference = EnergyAccountant(
            disk.power._model, 0.0, PowerState.IDLE
        )
        for now, new in changes:
            reference.transition(now, new)
        reference.close(sim.now)
        result["reference"] = _accounting(reference)
    return result


@settings(max_examples=150, deadline=None)
@given(steps=_steps, scheduler=st.sampled_from(Scheduler))
def test_inline_accounting_is_bit_identical_to_transition(steps, scheduler):
    plain = _replay(steps, scheduler, "plain")
    assert _replay(steps, scheduler, "observed") == plain
    traced = _replay(steps, scheduler, "traced")
    reference = traced.pop("reference")
    assert traced == plain
    assert reference == {key: plain[key] for key in reference}


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_op, min_size=1, max_size=40))
def test_op_service_time_is_the_mechanical_models(steps):
    """Every op, head-contiguous ones included, is costed exactly as
    ``MechanicalModel.service_time`` (or the sequential transfer time)
    would cost it from the head position it started at."""
    sim = Simulator()
    disk = Disk(sim, ULTRASTAR_36Z15, "D")
    head = [0]
    mismatches = []

    def check(d, op):
        if op.sequential_hint:
            expected = d.spec.transfer_time(op.nbytes)
        else:
            expected = d.mechanics.service_time(head[0], op.sector, op.nbytes)
        if op.finish_time != op.start_time + expected:
            mismatches.append((head[0], op.sector, op.nbytes))
        head[0] = d.mechanics.end_sector(op.sector, op.nbytes)

    disk.op_observer = check
    now = 0.0
    next_sector = 0
    for _, gap, kind, priority, sector, nbytes, hint in steps:
        now += gap
        if sector is None:
            sector = next_sector
        next_sector = sector + nbytes // 512
        sim.at(
            now,
            disk.submit,
            DiskOp(kind, sector, nbytes, priority, sequential_hint=hint),
        )
    sim.run()
    assert disk.ops_completed == len(steps)
    assert mismatches == []
