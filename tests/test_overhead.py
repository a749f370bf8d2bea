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
from repro.core.destage import DestageProcess
from repro.disk.disk import (
    Disk,
    DiskOp,
    OpKind,
    acquire_op,
    op_pool_stats,
    release_op,
)
from repro.disk.models import ULTRASTAR_36Z15
from repro.disk.power import EnergyAccountant
from repro.faults import FaultSchedule, run_faulted
from repro.faults.oracle import ConsistencyOracle
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    RecordingTracer,
    RunInstrumentation,
    SpanRecorder,
    TimeSeriesSampler,
    Tracer,
)
from repro.raid.request import (
    RequestKind,
    acquire_request,
    release_request,
    request_pool_stats,
)
from repro.sim import Simulator
from repro.obs.metrics import _SAMPLE_EVERY
from repro.sim.engine import Timer
from repro.sim.stats import Histogram
from repro.traces.synthetic import SyntheticTraceConfig, generate_compiled
from repro.verify.invariants import InvariantChecker
from tests.conftest import observe_every_disk, small_config, write_burst

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
# Sampled observers fused into one engine stride + run-loop selection
# ----------------------------------------------------------------------
class TestFusedObservers:
    def test_empty_chain_is_none(self):
        sim = Simulator()
        sim.add_stride(4, _noop)
        sim.remove_stride(_noop)
        assert sim._stride_fn is None
        assert sim._strides == []

    def test_single_observer_is_returned_identically(self):
        # A lone stride is the countdown itself: no dispatcher call.
        sim = Simulator()
        sim.add_stride(64, _noop)
        assert sim._stride_fn is _noop
        assert sim._stride_every == sim._stride_left == 64

    def test_chain_preserves_registration_order(self):
        sim = Simulator()
        seen = []
        sim.add_stride(2, lambda: seen.append("a"))
        sim.add_stride(4, lambda: seen.append("b"))
        sim.add_stride(2, lambda: seen.append("c"))
        for _ in range(4):
            sim.schedule(1.0, _noop)
        sim.run()
        assert seen == ["a", "c", "a", "b", "c"]

    def test_fresh_simulator_selects_nohook_loop(self):
        sim = Simulator()
        assert not hasattr(sim, "event_hook")
        assert sim._run_loop.__func__ is Simulator._run_nohook

    def test_observer_registration_swaps_loops(self):
        sim = Simulator()
        sim.add_stride(256, _noop)
        assert sim._run_loop.__func__ is Simulator._run_strided
        sim.remove_stride(_noop)
        assert sim._run_loop.__func__ is Simulator._run_nohook

    def test_shared_stride_fires_each_on_its_own_multiples(self):
        """The meter's 256-event samples and the checker's 64-event sweeps
        share one countdown at 64 and land where each alone would."""

        def run(periods):
            sim = Simulator()
            seen = []
            for period in periods:
                sim.add_stride(
                    period, lambda p=period: seen.append((p, sim.now))
                )
            for i in range(1000):
                sim.at(float(i), _noop)
            sim.run()
            return seen

        shared = run((256, 64))
        assert [s for s in shared if s[0] == 256] == run((256,))
        assert [s for s in shared if s[0] == 64] == run((64,))
        assert len(shared) == 1000 // 256 + 1000 // 64


def _noop():
    pass


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
        # The meter's samples and the checker's sweeps shared the stride.
        assert loops == [Simulator._run_strided]

        # Byte-identical RunMetrics despite tracer + metrics + checker.
        assert json.dumps(stacked.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )
        # All layers detached: the unobserved loop is re-selected.
        assert sim._stride_fn is None
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
            meter,
            InvariantChecker(sample_every=16),
        ]

        def fail() -> None:
            raise ValueError("callback failed mid-run")

        sim.at(1.0, fail)
        with pytest.raises(ValueError, match="callback failed mid-run"):
            run_trace(controller, trace, probes=probes)
        assert 0.9 < sim.now < 1.1
        assert sim._stride_fn is None
        assert sim._run_loop.__func__ is Simulator._run_nohook
        for disk in controller.all_disks():
            assert disk._complete.__func__ is Disk._complete_fast
        assert controller.metrics.on_response is None
        assert harvests == [meter]


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


def _profiled(run):
    """``run()`` under cProfile: ``(filename, function name) -> calls``,
    summed over same-named functions of one file."""
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    calls = {}
    for (filename, _, name), stats in pstats.Stats(profile).stats.items():
        key = (filename.replace("\\", "/"), name)
        calls[key] = calls.get(key, 0) + stats[1]
    return calls


def _calls_in(calls, suffix):
    """``function name -> calls`` of the functions in files ending in
    ``suffix``."""
    return {
        name: n for (filename, name), n in calls.items()
        if filename.endswith(suffix)
    }


def test_metered_run_samples_on_the_engine_stride():
    """A metered run has no per-event hook: it runs the strided loop, and
    besides set-up and harvest the meter only samples every
    ``_SAMPLE_EVERY`` events and feeds the per-op service-time and
    per-request latency histograms.  Set-up and harvest cost the same
    for a trace twice as long."""

    def run(duration_s):
        config, _ = _small_cell()
        trace = generate_compiled(
            SyntheticTraceConfig(
                duration_s=duration_s, iops=60.0, write_ratio=0.6,
                avg_request_bytes=32 * KB, size_sigma=0.5,
                footprint_bytes=8 * MB, seed=11, name="overhead-test",
            )
        )
        sim = Simulator()
        controller = build_controller("rolo-r", sim, config)
        loops = []
        loops_probe = types.SimpleNamespace(
            install=lambda sim, _: loops.append(sim._run_loop.__func__),
            uninstall=lambda: None,
        )
        meter = RunInstrumentation(MetricsRegistry())
        calls = _calls_in(
            _profiled(
                lambda: run_trace(
                    controller, trace, probes=[meter, loops_probe]
                )
            ),
            "obs/metrics.py",
        )
        assert loops == [Simulator._run_strided]
        assert not hasattr(sim, "event_hook")
        samples = sim.events_processed // _SAMPLE_EVERY
        ops = sum(disk.ops_completed for disk in controller.all_disks())
        requests = controller.metrics.requests
        assert calls.pop("_sample") == samples
        assert calls.pop("_on_op") == ops
        assert calls.pop("_on_response") == requests
        assert calls.pop("observe") == samples + ops + requests
        return calls, sim.events_processed

    short, short_events = run(5.0)
    long, long_events = run(10.0)
    assert long_events > short_events + 1000
    assert long == short


def test_span_recorder_calls_once_per_power_transition():
    """A span-recorded run makes one recorder call per power transition
    (the disk's power hook appends the span itself) and links ops to
    requests through ``IORequest.rid``: the recorder reads each request
    off the completing ``IORequest``, so against an untraced run it pops
    no dict entry, neither to pair arrival with completion nor to link
    ops."""
    config, trace = _small_cell()

    def run(tracer):
        sim = Simulator()
        controller = build_controller("rolo-e", sim, config, tracer=tracer)
        calls = _profiled(lambda: run_trace(controller, trace))
        return controller, calls

    _, plain = run(None)
    tracer = SpanRecorder()
    controller, spanned = run(tracer)
    recorder = _calls_in(spanned, "obs/tracer.py")
    n_disks = len(controller.all_disks())
    # Every transition closes one power span; finish closes one per disk.
    transitions = tracer.counts["power"] - n_disks
    assert transitions > 0
    assert recorder["hook"] == transitions
    assert "power_state" not in recorder  # seeded at construction
    pop = ("~", "<method 'pop' of 'dict' objects>")
    assert tracer.counts["request"] > 0
    assert spanned.get(pop, 0) == plain.get(pop, 0)
    assert not hasattr(Tracer, "request_admitted")
    assert not hasattr(Tracer, "request_arrived")


def _code_key(func):
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _profiled_rebuild_run(scheme, spec):
    """A plain ``fail@`` + rebuild run: result, call counts, pool misses."""
    before = op_pool_stats()
    profile = cProfile.Profile()
    profile.enable()
    result = run_faulted(
        scheme,
        small_config(),
        write_burst(60, gap=0.05),
        FaultSchedule.parse(spec),
    )
    profile.disable()
    after = op_pool_stats()
    calls = {
        func: stats[1] for func, stats in pstats.Stats(profile).stats.items()
    }
    acquired = calls.get(_code_key(acquire_op), 0)
    return result, calls, acquired - (after["reused"] - before["reused"])


def _rebuild_budget(monkeypatch, scheme, spec):
    """Profile ``spec`` on ``scheme`` on the event path (an op observer on
    every disk), then as is; check what every scheme's budget shares and
    return the second run's result, call ``count``, rebuild chain (RoLo-E's
    drain adds destage chains) and the first run's ``Disk.submit`` calls."""
    processes = []
    disks = []
    init = DestageProcess.__init__
    disk_init = Disk.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        processes.append(self)

    def recording_disk_init(self, *args, **kwargs):
        disk_init(self, *args, **kwargs)
        disks.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(DestageProcess, "__init__", recording_init)
        patch.setattr(Disk, "__init__", recording_disk_init)
        with patch.context() as observed:
            observe_every_disk(observed)
            reference, event_calls, _ = _profiled_rebuild_run(scheme, spec)
        event_submits = event_calls.get(_code_key(Disk.submit), 0)
        event_gaps = [disk.idle_gap_histogram.counts for disk in disks]
        assert not any(p.inline_batches for p in processes)
        processes.clear()
        disks.clear()
        result, calls, misses = _profiled_rebuild_run(scheme, spec)

    def count(func):
        return calls.get(_code_key(func), 0)

    assert result.consistent and result.rebuilds
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        reference.to_dict(), sort_keys=True
    )
    assert count(acquire_op) == count(Disk.submit)
    (rebuild,) = [p for p in processes if p.name.startswith("rebuild-")]
    assert rebuild.inline_batches > 0.9 * len(rebuild._batches)
    assert count(DiskOp.__init__) <= misses
    assert [disk.idle_gap_histogram.counts for disk in disks] == event_gaps
    return result, count, rebuild, event_submits


def test_rebuild_run_call_budget(monkeypatch):
    """The per-op budget of a plain ``fail@`` + rebuild run, exactly.

    Untraced disks integrate their ACTIVE<->IDLE toggle inline, so
    ``EnergyAccountant.transition`` runs only for the failure and the
    closing ``close()`` of each disk; and every op the run submits,
    rebuild copies included, comes from the slab pool, so ``DiskOp``
    is constructed only on a pool miss.  The rebuild fast-forwards: each
    batch it copies inline skips the read's and the write's
    ``Disk.submit``, which the event path (an op observer on every disk)
    makes, and nothing else changes.  Its single-target batches run in
    the steady-state block's inner loop, which buckets the repeating idle
    gaps itself: the histograms match the event path's while
    ``Histogram.add`` runs for a small fraction of the batches.  On
    RoLo-E the rebuild's source is a sleeping non-duty disk with a
    standby timer, which that loop re-arms once per block: ``Timer.arm``
    runs for a small fraction of the batches too.
    """
    result, count, rebuild, event_submits = _rebuild_budget(
        monkeypatch, "raid10", "fail@1.5:M0"
    )
    assert count(Disk.submit) + 2 * rebuild.inline_batches == event_submits
    assert 16 * count(Histogram.add) < rebuild.inline_batches
    metrics = result.metrics
    assert metrics.spin_up_count == metrics.spin_down_count == 0
    n_disks = 4
    assert count(EnergyAccountant.transition) == 1 + n_disks

    _, count, rebuild, _ = _rebuild_budget(
        monkeypatch, "rolo-e", "fail@1.5:M1"
    )
    assert rebuild.source.name == "P1"
    assert 16 * count(Timer.arm) < rebuild.inline_batches


def _profiled_cell(cell):
    """Run ``cell``: its metrics and per-function call counts."""
    profile = cProfile.Profile()
    profile.enable()
    metrics = cell.execute()
    profile.disable()
    calls = {
        func: stats[1] for func, stats in pstats.Stats(profile).stats.items()
    }
    return metrics, calls


def test_interleaved_destage_call_budget(monkeypatch):
    """The per-batch budget of a GRAID cell whose eight pairs destage at
    once, exactly.  Its chains are single-target, so every read that
    completes on the event path is offered to ``_solo``; but they
    interleave, so nearly all are refused, most by the cheap check on the
    heap's head, before any set-up.  The rest pay the set-up, whose mark
    is its one ``Simulator._head_except`` call, and a few batches run
    inline.  Each batch copied inline skips its write's ``Disk.submit``
    and the next batch's read's, against the event path (an op observer
    on every disk), and nothing else changes.  Idle gaps are bucketed by
    ``Disk._start`` and ``_solo`` without a ``Histogram.add`` call."""
    from repro.experiments.runner import workload_cell

    cell = workload_cell("graid", "src2_2", scale=0.004, n_pairs=8)
    chains = []
    init = DestageProcess.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        chains.append(self)

    monkeypatch.setattr(DestageProcess, "__init__", recording_init)
    with monkeypatch.context() as observed:
        observe_every_disk(observed)
        reference, event_calls = _profiled_cell(cell)
    assert not any(chain.inline_batches for chain in chains)
    event_batches = sum(len(chain._batches) for chain in chains)
    chains.clear()
    metrics, calls = _profiled_cell(cell)
    assert json.dumps(metrics.to_dict(), sort_keys=True) == json.dumps(
        reference.to_dict(), sort_keys=True
    )
    assert len(chains) >= 8 and all(chain.done for chain in chains)
    inline = sum(chain.inline_batches for chain in chains)
    batches = sum(len(chain._batches) for chain in chains)
    assert batches == event_batches

    def count(func):
        return calls.get(_code_key(func), 0)

    def event_count(func):
        return event_calls.get(_code_key(func), 0)

    assert (count(DestageProcess._solo), batches) == (924, 927)
    assert count(Simulator._head_except) == 116
    assert inline == 4

    assert count(Disk.submit) + 2 * inline == event_count(Disk.submit)
    # Idle gaps are bucketed inline on both paths: the one histogram that
    # still calls add is the request-latency one, once per request.
    assert count(Histogram.add) == event_count(Histogram.add)
    assert count(Histogram.add) == metrics.requests
