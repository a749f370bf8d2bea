"""Equivalence suite: compiled/streamed replay is bit-identical to legacy.

The hot-path overhaul (compiled traces, indexed arrival streaming, heap
hygiene, pooled events) is pure mechanics — it must not change a single
reported number.  These tests replay the same workload through
:func:`run_trace` twice, once from a legacy :class:`Trace` and once from
its :class:`CompiledTrace` counterpart, and require the serialized
:class:`RunMetrics` to be *byte-identical* (``json.dumps`` of
``to_dict()``), for every scheme, with tracing attached, and under fault
injection.

``events_processed`` is asserted equal as well: both replay paths schedule
exactly one arrival event per trace record (the driver keeps only the next
arrival in the heap either way), so the arrival-streaming delta is zero.
"""

import json

import pytest

from repro.core import ArrayConfig, build_controller, run_trace
from repro.faults.injector import FaultInjector
from repro.faults.oracle import ConsistencyOracle
from repro.faults.schedule import FaultSchedule
from repro.obs.tracer import RecordingTracer
from repro.sim import Simulator
from repro.traces import (
    Burstiness,
    SyntheticTraceConfig,
    compile_trace,
    generate_compiled,
    generate_trace,
)

MB = 1024 * 1024

SCHEMES = ["raid10", "graid", "rolo-p", "rolo-r", "rolo-e"]

TRACE_CONFIG = SyntheticTraceConfig(
    duration_s=20.0,
    iops=100,
    write_ratio=0.8,
    avg_request_bytes=64 * 1024,
    size_sigma=0.5,
    footprint_bytes=96 * MB,
    burstiness=Burstiness.MEDIUM,
    burst_cycle_s=8.0,
    read_locality=0.6,
    seed=99,
    name="equiv",
)

ARRAY_CONFIG = ArrayConfig(n_pairs=4).scaled(0.01)


def _metrics_bytes(metrics) -> bytes:
    return json.dumps(metrics.to_dict(), sort_keys=True).encode()


def _replay(scheme, trace, *, tracer=None, fault_spec=None):
    sim = Simulator()
    if fault_spec is None:
        controller = build_controller(scheme, sim, ARRAY_CONFIG, tracer=tracer)
        metrics = run_trace(controller, trace)
        controller.assert_consistent()
        return sim, controller, metrics
    oracle = ConsistencyOracle()
    controller = build_controller(scheme, sim, ARRAY_CONFIG, oracle=oracle)
    injector = FaultInjector(FaultSchedule.parse(fault_spec), oracle)
    metrics = run_trace(controller, trace, probes=[injector])
    return sim, controller, metrics


@pytest.fixture(scope="module")
def traces():
    legacy = generate_trace(TRACE_CONFIG)
    compiled = generate_compiled(TRACE_CONFIG)
    assert list(compiled) == legacy.records  # precondition for everything below
    return legacy, compiled


@pytest.mark.parametrize("scheme", SCHEMES)
def test_metrics_byte_identical_across_schemes(scheme, traces):
    legacy, compiled = traces
    sim_a, _, metrics_a = _replay(scheme, legacy)
    sim_b, _, metrics_b = _replay(scheme, compiled)
    assert _metrics_bytes(metrics_a) == _metrics_bytes(metrics_b)
    # One arrival event per record on both paths: zero streaming delta.
    assert sim_a.events_processed == sim_b.events_processed


def test_metrics_byte_identical_with_tracer(traces):
    legacy, compiled = traces
    tracer_a, tracer_b = RecordingTracer(), RecordingTracer()
    _, _, metrics_a = _replay("rolo-p", legacy, tracer=tracer_a)
    _, _, metrics_b = _replay("rolo-p", compiled, tracer=tracer_b)
    assert _metrics_bytes(metrics_a) == _metrics_bytes(metrics_b)
    assert len(tracer_a.events) == len(tracer_b.events) > 0


def test_metrics_byte_identical_under_fault_injection(traces):
    legacy, compiled = traces
    spec = "fail@10:M1"
    sim_a, _, metrics_a = _replay("rolo-p", legacy, fault_spec=spec)
    sim_b, _, metrics_b = _replay("rolo-p", compiled, fault_spec=spec)
    assert _metrics_bytes(metrics_a) == _metrics_bytes(metrics_b)
    assert sim_a.events_processed == sim_b.events_processed


def test_compile_trace_of_workload_replays_identically(traces):
    # compile_trace() on an existing legacy trace (not just the generator
    # fast path) feeds the indexed driver the same columns.
    legacy, _ = traces
    recompiled = compile_trace(legacy)
    _, _, metrics_a = _replay("raid10", legacy)
    _, _, metrics_b = _replay("raid10", recompiled)
    assert _metrics_bytes(metrics_a) == _metrics_bytes(metrics_b)
