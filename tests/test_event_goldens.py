"""Pinned event-stream digests: traced and span-recorded runs.

Run-to-run determinism is tested elsewhere; these digests pin the event
streams *across code changes*.  Each digest is the sha256 of
``json.dumps([e.to_dict() for e in tracer.sorted_events()],
sort_keys=True)``: every timestamp, duration, phase split (seek /
rotation / transfer floats included) and owner link.  A refactor of the
disk completion path or the tracers must leave all of them unchanged.
"""

import hashlib
import json

import pytest

from tests.conftest import KB, MB, make_trace, small_config
from repro.experiments.runner import run_cell_observed, workload_cell
from repro.faults import FaultSchedule, run_faulted
from repro.obs import SpanRecorder

#: (scheme, recorder) -> digest for rsrch_2 at scale 0.004, 2 pairs.
CELL_DIGESTS = {
    ("rolo-r", "trace"): (
        "da8cf3c8e33cc25b7950df115915ce83"
        "9a23da85838f432944380ce953fb0feb"
    ),
    ("rolo-r", "spans"): (
        "a4e3a694d3bebc931695540589921c6a"
        "6db3308468a7df74315f146b66b7e3e6"
    ),
    ("rolo-e", "trace"): (
        "9340820b3bad9f398c852ae3c04c293f"
        "523be348fb7c50c6e8d8859700adf85f"
    ),
    ("rolo-e", "spans"): (
        "8f3ecbfc5ecd6342ff537629d56ca2e4"
        "1b980fe29a1b9adea86c46f2a186da48"
    ),
}

#: recorder -> digest of RoLo-5 on proj_0 at scale 0.01, 2 pairs: 11
#: ``rotation`` and 11 ``destage`` records (the parity-update rounds,
#: drain included) beside the disk and request streams.
ROLO5_DIGESTS = {
    "trace": (
        "93c2ec2610d262447f510e70d8013663"
        "9c171a3932eacf174b312b676b28c95c"
    ),
    "spans": (
        "0b866f4a534ea8e3777ae58e3328412d"
        "fd22e5627eacbc0eedcaec6b6c4d7319"
    ),
}

#: The ``slow@`` + ``fail@`` span-recorded RoLo-R run: the slowdown
#: factor scales seek and rotation, so this pins that arithmetic too.
FAULTED_SPANS_DIGEST = (
    "052006a107122208bc20ec631021e13b"
    "b7c42fbab1e1e0e58b6a2ca62360da19"
)


def digest(tracer) -> str:
    payload = json.dumps(
        [event.to_dict() for event in tracer.sorted_events()], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("scheme,recorder", sorted(CELL_DIGESTS))
def test_cell_event_stream_digest(scheme, recorder):
    cell = workload_cell(scheme, "rsrch_2", scale=0.004, n_pairs=2)
    if recorder == "spans":
        run = run_cell_observed(cell, spans=True)
    else:
        run = run_cell_observed(cell, trace_events=True)
    assert digest(run.tracer) == CELL_DIGESTS[(scheme, recorder)]


@pytest.mark.parametrize("recorder", sorted(ROLO5_DIGESTS))
def test_rolo5_event_stream_digest(recorder):
    cell = workload_cell("rolo-5", "proj_0", scale=0.01, n_pairs=2)
    if recorder == "spans":
        run = run_cell_observed(cell, spans=True)
    else:
        run = run_cell_observed(cell, trace_events=True)
    categories = [event.category for event in run.tracer.sorted_events()]
    assert categories.count("rotation") == 11
    assert categories.count("destage") == 11
    assert digest(run.tracer) == ROLO5_DIGESTS[recorder]


def test_faulted_span_stream_digest():
    spec = [(i * 0.02, "w", (i % 40) * 64 * KB, 64 * KB) for i in range(300)]
    spec += [
        (i * 0.02 + 0.01, "r", ((i + 7) % 40) * 64 * KB + 8 * MB, 64 * KB)
        for i in range(300)
    ]
    recorder = SpanRecorder()
    result = run_faulted(
        "rolo-r",
        small_config(free_space_bytes=1 * MB),
        make_trace(sorted(spec)),
        FaultSchedule.parse("slow@0:P0:3x2,fail@2:M1"),
        tracer=recorder,
    )
    assert result.consistent
    assert digest(recorder) == FAULTED_SPANS_DIGEST
