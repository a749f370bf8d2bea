"""Equivalence suite: replay depends on a trace's column values only.

:class:`~repro.core.base.TraceDriver` reads a trace's columns by index,
and they come in two storages: the stdlib ``array`` columns of a
:class:`CompiledTrace` built in process, and the ``memoryview`` columns
of a :class:`~repro.traces.shm.SharedCompiledTrace` attached from a
shared-memory segment, which every pooled sweep worker replays.  These
tests replay the same workload through :func:`run_trace` from each, and
require the serialized :class:`RunMetrics` to be *byte-identical*
(``json.dumps`` of ``to_dict()``), for every scheme, with tracing
attached, and under fault injection.

``events_processed`` is asserted equal as well: the driver schedules
exactly one arrival event per request from either storage.
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
    SharedTraceStore,
    SyntheticTraceConfig,
    generate_compiled,
)
from repro.traces import shm

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
    owned = generate_compiled(TRACE_CONFIG)
    with SharedTraceStore() as store:
        attached = shm.attach(store.publish(owned))
        try:
            assert isinstance(attached.arrivals, memoryview)
            # Precondition for everything below.
            assert attached.content_hash() == owned.content_hash()
            yield owned, attached
        finally:
            attached.detach()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_metrics_byte_identical_across_schemes(scheme, traces):
    owned, attached = traces
    sim_a, _, metrics_a = _replay(scheme, owned)
    sim_b, _, metrics_b = _replay(scheme, attached)
    assert _metrics_bytes(metrics_a) == _metrics_bytes(metrics_b)
    # One arrival event per request from either storage.
    assert sim_a.events_processed == sim_b.events_processed


def test_metrics_byte_identical_with_tracer(traces):
    owned, attached = traces
    tracer_a, tracer_b = RecordingTracer(), RecordingTracer()
    _, _, metrics_a = _replay("rolo-p", owned, tracer=tracer_a)
    _, _, metrics_b = _replay("rolo-p", attached, tracer=tracer_b)
    assert _metrics_bytes(metrics_a) == _metrics_bytes(metrics_b)
    assert tracer_a.events == tracer_b.events
    assert tracer_a.events


def test_metrics_byte_identical_under_fault_injection(traces):
    owned, attached = traces
    spec = "fail@10:M1"
    sim_a, _, metrics_a = _replay("rolo-p", owned, fault_spec=spec)
    sim_b, _, metrics_b = _replay("rolo-p", attached, fault_spec=spec)
    assert _metrics_bytes(metrics_a) == _metrics_bytes(metrics_b)
    assert sim_a.events_processed == sim_b.events_processed

