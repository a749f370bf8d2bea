"""Pinned export and attribution digests for span-traced runs.

``tests/test_event_goldens.py`` pins the event stream itself; this pins
what leaves the process: the bytes :func:`write_jsonl` writes, the Chrome
document :func:`to_chrome_trace` builds (serialized the way
:func:`write_chrome_trace` writes it, key order included) and the
per-request latency attributions.  The digests live in
``tests/golden/span_exports.json``; a change to the recorders, the
exporters or the attribution must leave every one of them unchanged.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.runner import run_cell_observed, workload_cell
from repro.obs import attribute_events, to_chrome_trace, write_jsonl

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "span_exports.json"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export_digests(scheme: str, tmp_path) -> dict:
    """The three digests of one span-traced ``src2_2`` cell."""
    cell = workload_cell(scheme, "src2_2", scale=0.004, n_pairs=4)
    events = run_cell_observed(cell, spans=True).tracer.sorted_events()
    path = tmp_path / f"{scheme}.jsonl"
    write_jsonl(events, str(path))
    chrome = json.dumps(to_chrome_trace(events))
    attributions = json.dumps(
        [a.to_dict() for a in attribute_events(events)]
    )
    return {
        "events": len(events),
        "jsonl": _sha256(path.read_bytes()),
        "chrome": _sha256(chrome.encode()),
        "attribution": _sha256(attributions.encode()),
    }


@pytest.mark.parametrize("scheme", ("rolo-r", "rolo-e"))
def test_span_export_digests(scheme, tmp_path):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert export_digests(scheme, tmp_path) == golden[scheme]
