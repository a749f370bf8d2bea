"""Zero-overhead instrumentation: specialization, pooling, call counts.

The contract under test: every observe-only feature is wired at
run-setup time (loop selection, bound completion methods, oracle-note
elision, slab pools), an instrumented run produces byte-identical
``RunMetrics``, and tearing everything down restores the specialized
no-hook fast paths exactly, down to the per-function call counts of the
replay.
"""

import cProfile
import json
import pstats
import types

import pytest

from repro.core import ArrayConfig, build_controller, run_trace
from repro.core.base import _noop_note
from repro.disk.disk import (
    Disk,
    DiskOp,
    OpKind,
    acquire_op,
    op_pool_stats,
    release_op,
)
from repro.disk.models import ULTRASTAR_36Z15
from repro.faults.oracle import ConsistencyOracle
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    RecordingTracer,
    RunInstrumentation,
    SpanRecorder,
    TimeSeriesSampler,
)
from repro.obs.profiler import LabelCounter
from repro.raid.request import (
    RequestKind,
    acquire_request,
    release_request,
    request_pool_stats,
)
from repro.sim import Simulator
from repro.sim.engine import fuse_observers
from repro.traces.synthetic import SyntheticTraceConfig, generate_compiled
from repro.verify.invariants import InvariantChecker

KB = 1024
MB = 1024 * KB


def _small_cell():
    config = ArrayConfig(n_pairs=2).scaled(0.01)
    trace = generate_compiled(
        SyntheticTraceConfig(
            duration_s=5.0,
            iops=60.0,
            write_ratio=0.6,
            avg_request_bytes=32 * KB,
            size_sigma=0.5,
            footprint_bytes=8 * MB,
            seed=11,
            name="overhead-test",
        )
    )
    return config, trace


# ----------------------------------------------------------------------
# Fused observer chain + run-loop selection
# ----------------------------------------------------------------------
class TestFusedObservers:
    def test_empty_chain_is_none(self):
        assert fuse_observers() is None

    def test_single_observer_is_returned_identically(self):
        def hook(event):
            pass

        assert fuse_observers(hook) is hook

    def test_chain_preserves_registration_order(self):
        seen = []
        fused = fuse_observers(
            lambda e: seen.append("a"),
            lambda e: seen.append("b"),
            lambda e: seen.append("c"),
        )
        fused(object())
        assert seen == ["a", "b", "c"]

    def test_fresh_simulator_selects_nohook_loop(self):
        sim = Simulator()
        assert sim.event_hook is None
        assert sim._run_loop.__func__ is Simulator._run_nohook

    def test_observer_registration_swaps_loops(self):
        sim = Simulator()

        def hook(event):
            pass

        sim.add_event_observer(hook)
        assert sim.event_hook is hook
        assert sim._run_loop.__func__ is Simulator._run_hooked
        sim.remove_event_observer(hook)
        assert sim.event_hook is None
        assert sim._run_loop.__func__ is Simulator._run_nohook

    def test_hooked_loop_fires_chain_per_event(self):
        sim = Simulator()
        labels = []
        sim.add_event_observer(lambda e: labels.append(e.label))
        sim.schedule(1.0, lambda: None, label="tick")
        sim.run()
        assert labels == ["tick"]


# ----------------------------------------------------------------------
# The full hook stack, simultaneously
# ----------------------------------------------------------------------
class TestFullHookStack:
    def test_stacked_run_is_byte_identical_and_detaches_clean(self):
        config, trace = _small_cell()

        plain_sim = Simulator()
        plain = run_trace(
            build_controller("rolo-r", plain_sim, config), trace
        )

        sim = Simulator()
        tracer = RecordingTracer()
        controller = build_controller(
            "rolo-r", sim, config, tracer=tracer
        )
        registry = MetricsRegistry()
        checker = InvariantChecker(sample_every=16)
        loops = []
        loops_probe = types.SimpleNamespace(
            install=lambda sim, _: loops.append(sim._run_loop.__func__),
            uninstall=lambda: None,
        )
        stacked = run_trace(
            controller,
            trace,
            probes=[RunInstrumentation(registry), checker, loops_probe],
        )
        # Both event observers were on the hook while the run went.
        assert loops == [Simulator._run_hooked]

        # Byte-identical RunMetrics despite tracer + metrics + checker.
        assert json.dumps(stacked.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )
        # All layers detached: the no-hook specialized loop is re-selected.
        assert sim.event_hook is None
        assert sim._run_loop.__func__ is Simulator._run_nohook
        # Every layer actually observed the run.
        assert tracer.events
        assert checker.checks_run > 0
        scheme = controller.scheme_name
        assert registry.get("sim_events_total", scheme=scheme).value > 0

    def test_failing_run_still_detaches_every_probe(self, monkeypatch):
        harvests = []
        harvest = RunInstrumentation.harvest

        def counting_harvest(self):
            harvests.append(self)
            harvest(self)

        monkeypatch.setattr(RunInstrumentation, "harvest", counting_harvest)
        config, trace = _small_cell()
        sim = Simulator()
        controller = build_controller("rolo-r", sim, config)
        meter = RunInstrumentation(MetricsRegistry())
        probes = [
            TimeSeriesSampler(0.5),
            LabelCounter(),
            meter,
            InvariantChecker(sample_every=16),
        ]

        def fail() -> None:
            raise ValueError("callback failed mid-run")

        sim.at(1.0, fail, label="fail")
        with pytest.raises(ValueError, match="callback failed mid-run"):
            run_trace(controller, trace, probes=probes)
        assert 0.9 < sim.now < 1.1
        assert sim.event_hook is None
        assert sim._run_loop.__func__ is Simulator._run_nohook
        for disk in controller.all_disks():
            assert disk._complete.__func__ is Disk._complete_fast
        assert controller.metrics.on_response is None
        assert harvests == [meter]

    def test_event_free_pool_census_is_harvested(self):
        config, trace = _small_cell()
        sim = Simulator()
        controller = build_controller("raid10", sim, config)
        registry = MetricsRegistry()
        run_trace(controller, trace, probes=[RunInstrumentation(registry)])
        scheme = controller.scheme_name
        size = registry.get("sim_event_free_pool_size", scheme=scheme)
        cap = registry.get("sim_event_free_pool_max", scheme=scheme)
        assert size is not None and size.value >= 0
        assert cap is not None and cap.value == float(sim.free_pool_max)
        assert sim.free_pool_size <= sim.free_pool_max


# ----------------------------------------------------------------------
# Disk completion specialization
# ----------------------------------------------------------------------
class TestDiskCompletionSpecialization:
    def test_unobserved_disk_binds_fast_completion(self):
        sim = Simulator()
        disk = Disk(sim, ULTRASTAR_36Z15, "D")
        assert disk._complete.__func__ is Disk._complete_fast

    def test_attaching_observer_swaps_to_observed_and_back(self):
        sim = Simulator()
        disk = Disk(sim, ULTRASTAR_36Z15, "D")
        disk.op_observer = lambda d, op: None
        assert disk._complete.__func__ is Disk._complete_observed
        disk.op_observer = None
        assert disk._complete.__func__ is Disk._complete_fast

    def test_tracer_selects_observed_completion(self):
        sim = Simulator()
        disk = Disk(sim, ULTRASTAR_36Z15, "D", tracer=RecordingTracer())
        assert disk._complete.__func__ is Disk._complete_observed
        # Span recorders share the observed body (two bodies in all).
        disk = Disk(sim, ULTRASTAR_36Z15, "S", tracer=SpanRecorder())
        assert disk._complete.__func__ is Disk._complete_observed

    def test_observed_and_fast_paths_complete_identically(self):
        def run(observed):
            sim = Simulator()
            disk = Disk(sim, ULTRASTAR_36Z15, "D")
            if observed:
                disk.op_observer = lambda d, op: None
            for sector in (0, 5000, 100):
                disk.submit(DiskOp(OpKind.WRITE, sector, 64 * KB))
            sim.run()
            return disk.ops_completed, disk.busy_time, sim.now

        assert run(False) == run(True)


# ----------------------------------------------------------------------
# Slab pools: DiskOp, IORequest
# ----------------------------------------------------------------------
class TestSlabPools:
    def test_op_pool_reuses_and_stays_bounded(self):
        before = op_pool_stats()
        ops = [
            acquire_op(OpKind.WRITE, 0, 4096) for _ in range(before["max"] + 8)
        ]
        for op in ops:
            release_op(op)
        after = op_pool_stats()
        assert after["size"] <= after["max"]
        assert after["released"] > before["released"]
        recycled = acquire_op(OpKind.READ, 7, 512)
        assert recycled.kind is OpKind.READ
        assert recycled.sector == 7
        assert recycled.on_complete is None
        release_op(recycled)

    def test_request_pool_reuses_and_stays_bounded(self):
        before = request_pool_stats()
        requests = [
            acquire_request(RequestKind.WRITE, 0, 4096, arrival_time=0.0)
            for _ in range(before["max"] + 8)
        ]
        for request in requests:
            release_request(request)
        after = request_pool_stats()
        assert after["size"] <= after["max"]
        assert after["released"] > before["released"]
        recycled = acquire_request(
            RequestKind.READ, 512, 1024, arrival_time=2.0
        )
        assert recycled.kind is RequestKind.READ
        assert recycled.offset == 512
        assert not recycled.complete
        release_request(recycled)

    def test_replay_recycles_pooled_objects(self):
        config, trace = _small_cell()
        before_ops = op_pool_stats()["released"]
        before_requests = request_pool_stats()["released"]
        sim = Simulator()
        run_trace(build_controller("raid10", sim, config), trace)
        assert op_pool_stats()["released"] > before_ops
        assert request_pool_stats()["released"] > before_requests


# ----------------------------------------------------------------------
# Oracle-note elision
# ----------------------------------------------------------------------
class TestOracleElision:
    def test_no_oracle_binds_module_noop(self):
        sim = Simulator()
        controller = build_controller(
            "raid10", sim, ArrayConfig(n_pairs=2).scaled(0.01)
        )
        assert controller.oracle is None
        assert controller._note_read is _noop_note

    def test_attaching_oracle_rebinds_and_detaching_restores(self):
        sim = Simulator()
        controller = build_controller(
            "raid10", sim, ArrayConfig(n_pairs=2).scaled(0.01)
        )
        oracle = ConsistencyOracle()
        oracle.attach(controller)
        assert controller.oracle is oracle
        assert controller._note_read.__func__ is type(oracle).note_read
        controller.oracle = None
        assert controller._note_read is _noop_note

    def test_parity_controllers_bind_parity_notes(self):
        from repro.core.raid5 import Raid5Config, Raid5Controller

        sim = Simulator()
        controller = Raid5Controller(sim, Raid5Config(n_disks=4))
        assert controller._note_parity_write is _noop_note
        assert controller._note_parity_read is _noop_note
        oracle = ConsistencyOracle()
        controller.oracle = oracle
        assert (
            controller._note_parity_write.__func__
            is type(oracle).note_parity_write
        )
        controller.oracle = None
        assert controller._note_parity_write is _noop_note


# ----------------------------------------------------------------------
# Observe-only contract on a real replay
# ----------------------------------------------------------------------
FIG10_SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")


def _digest(metrics):
    return json.dumps(metrics.to_dict(), sort_keys=True)


def _instrumented_run(variant, config, trace):
    """One rolo-r replay with one observe-only layer attached."""
    sim = Simulator()
    tracer = {"traced": RecordingTracer(), "spanned": SpanRecorder()}
    controller = build_controller(
        "rolo-r",
        sim,
        config,
        tracer=tracer.get(variant),
        oracle=ConsistencyOracle() if variant == "oracle" else None,
    )
    probes = {
        "metered": [RunInstrumentation(MetricsRegistry())],
        "verified": [InvariantChecker()],
    }
    metrics = run_trace(controller, trace, probes=probes.get(variant, ()))
    controller.assert_consistent()
    return metrics


@pytest.mark.parametrize(
    "variant", ["traced", "metered", "verified", "spanned", "oracle"]
)
def test_instrumented_run_metrics_are_byte_identical_to_plain(variant):
    config, trace = _small_cell()
    plain = run_trace(build_controller("rolo-r", Simulator(), config), trace)
    instrumented = _instrumented_run(variant, config, trace)
    assert _digest(instrumented) == _digest(plain)


def _call_counts(scheme, config, trace, tracer=None, attach=None):
    """Per-function cProfile call counts of one replay window.

    The window is ``run_trace`` plus ``assert_consistent``: everything a
    run pays per event.  ``attach(sim, controller)`` runs before the
    window opens, so set-up and tear-down cost is not counted.
    """
    sim = Simulator()
    controller = build_controller(scheme, sim, config, tracer=tracer)
    if attach is not None:
        attach(sim, controller)
    profile = cProfile.Profile()
    profile.enable()
    run_trace(controller, trace)
    controller.assert_consistent()
    profile.disable()
    return {
        func: calls
        for func, (_, calls, _, _, _) in pstats.Stats(profile).stats.items()
    }


def _attach_then_detach(sim, controller):
    meter = RunInstrumentation(MetricsRegistry())
    meter.install(sim, controller)
    meter.uninstall()
    checker = InvariantChecker()
    checker.install(sim, controller)
    checker.uninstall()
    ConsistencyOracle().attach(controller)
    controller.oracle = None


def _leak_meter(sim, controller):
    RunInstrumentation(MetricsRegistry()).install(sim, controller)


@pytest.mark.parametrize("scheme", FIG10_SCHEMES)
def test_detached_instrumentation_leaves_call_counts_unchanged(scheme):
    """Disabled instrumentation is free: not one extra call per event.

    A plain replay and one whose controller had the null tracer, a
    metrics meter, the invariant checker and a consistency oracle
    attached and detached again must make exactly the same calls to
    exactly the same functions.  A meter left installed must not.
    """
    config, trace = _small_cell()
    # Untimed warm-up: the first replay in a process also pays lazy
    # imports and fills the slab pools, which later replays reuse.
    _call_counts(scheme, config, trace)
    plain = _call_counts(scheme, config, trace)
    assert _call_counts(scheme, config, trace) == plain
    disabled = _call_counts(
        scheme, config, trace, tracer=NULL_TRACER, attach=_attach_then_detach
    )
    assert disabled == plain
    # Negative control: the comparison sees a leaked observer.
    assert _call_counts(scheme, config, trace, attach=_leak_meter) != plain
