"""Pinned RunMetrics digests of *untraced* runs.

``tests/test_event_goldens.py`` pins traced and span-recorded runs, whose
power transitions all go through ``EnergyAccountant.transition``.  Plain
runs take the disk's inline ACTIVE/IDLE accounting instead, so these
digests pin that path: every energy joule, state duration, latency
quantile and counter of the five Fig. 10 schemes and the two parity
schemes, of GRAID and RoLo-E cells whose 20 pairs destage at once, and
of ``fail@`` + rebuild runs whose rebuild streams thousands of pooled
copy ops.  Each
digest is the sha256 of ``json.dumps(x.to_dict(), sort_keys=True)``, so
floats are compared by their exact ``repr``.
"""

import hashlib
import json

import pytest

from tests.conftest import KB, MB, make_trace, small_config
from repro.experiments.runner import _run_cell, workload_cell
from repro.faults import FaultSchedule, run_faulted

#: scheme -> digest of ``RunMetrics.to_dict()`` for src2_2 at scale 0.004,
#: 2 pairs (the Fig. 10 cell, shrunk).
CELL_DIGESTS = {
    "raid10": (
        "b1999c6afbca6b13c92c29344e736013"
        "312ad73109270fb1a2946d038eababfc"
    ),
    "graid": (
        "eaed5057cdf75f716bf32c49b1ad0d72"
        "b261c088e7e798c5f082ca82cd7dd5e8"
    ),
    "rolo-p": (
        "90effe337bd795d3f0c2c012c11347ef"
        "8f2c1daac921b75f6826d02d49dd9478"
    ),
    "rolo-r": (
        "7558c13f33a08f53e385bd4e284e8d97"
        "3d657bcaec48a8c8930e0dbba0d2cc11"
    ),
    "rolo-e": (
        "42a2beb8db2d90c6d5aec79aaa19beb1"
        "bc84fcdb3a1208745298c9748ea9486c"
    ),
    "raid5": (
        "4adff443c6bd0c0c58fcb32adc486749"
        "add17902df589299a9a4226ca92f0fbc"
    ),
    "rolo-5": (
        "fb2ad1bc97753ad8977c6c6c43f61123"
        "50cfeb93c625345092e52a45d6085383"
    ),
}

#: RoLo-5 on proj_0 at scale 0.01, 2 pairs: the src2_2 cell above makes
#: no parity-update round inside its window, this one makes 9 (and 11
#: rotations), so it pins the parity pump and the log reclaim.
ROLO5_PROJ0_DIGEST = (
    "b81f93e89f697c308fb00f2f1a0daa66"
    "805a0f4541fca21688389ba6934a20ea"
)

#: (scheme, workload, scale) -> (digest of ``RunMetrics.to_dict()``,
#: events dispatched, end time) at the default 20 pairs.  Every pair
#: destages at once here (20 centralized copy chains in flight at the
#: peak), so these pin interleaved chains; the cells above have two.
INTERLEAVED_CELLS = {
    ("graid", "src2_2", 0.004): (
        "7922eafde9b7cc6ef424427ad5009d2f"
        "eb59e8598acb7c318698619a38716f8f",
        12307,
        40.006983779029426,
    ),
    ("graid", "proj_0", 0.002): (
        "de1f10771ce48e298d93b61f9dc68a83"
        "26bc968eee85e1e43f8274f3b5897f72",
        23759,
        191.85892352810876,
    ),
    ("rolo-e", "src2_2", 0.004): (
        "98ef4b1e1714ef348593c02239fdd492"
        "991ff749c0780c62dab3257dfb23b8d0",
        12491,
        67.13997164567425,
    ),
    ("rolo-e", "proj_0", 0.002): (
        "e83938a7f5f40fd67955c8aff6c65822"
        "115fd751fc868523ac46cbeeab18cb40",
        25009,
        212.33335315151515,
    ),
}

#: scheme -> digest of ``FaultRunResult.to_dict()`` for the run below.
FAULTED_DIGESTS = {
    "raid10": (
        "e3a9384094ef8a9a6d3380963120e932"
        "1200229c639c366d67d028212134cf85"
    ),
    "rolo-r": (
        "4f7a7d6ba7665d263390416abe68347a"
        "5c2b0dba52eefd63337904527403680f"
    ),
}


def digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scheme", sorted(CELL_DIGESTS))
def test_fig10_cell_metrics_digest(scheme):
    cell = workload_cell(scheme, "src2_2", scale=0.004, n_pairs=2)
    assert digest(cell.execute().to_dict()) == CELL_DIGESTS[scheme]


def test_rolo5_parity_rounds_metrics_digest():
    cell = workload_cell("rolo-5", "proj_0", scale=0.01, n_pairs=2)
    metrics = cell.execute()
    assert (metrics.rotations, metrics.destage_cycles) == (11, 9)
    assert digest(metrics.to_dict()) == ROLO5_PROJ0_DIGEST


@pytest.mark.parametrize(
    "scheme, workload, scale", sorted(INTERLEAVED_CELLS)
)
def test_interleaved_destage_cell_digest(scheme, workload, scale):
    run = _run_cell(workload_cell(scheme, workload, scale=scale))
    assert (
        digest(run.metrics.to_dict()),
        run.profile.events,
        run.profile.sim_time_s,
    ) == INTERLEAVED_CELLS[(scheme, workload, scale)]


def faulted_trace():
    """Writes over 4 MiB with reads interleaved, long enough that the
    rebuild after ``fail@`` overlaps foreground I/O."""
    spec = [(i * 0.01, "w", (i % 64) * 64 * KB, 64 * KB) for i in range(400)]
    spec += [
        (i * 0.01 + 0.005, "r", ((i + 11) % 64) * 64 * KB, 64 * KB)
        for i in range(400)
    ]
    return make_trace(sorted(spec))


@pytest.mark.parametrize("scheme", sorted(FAULTED_DIGESTS))
def test_fail_and_rebuild_result_digest(scheme):
    result = run_faulted(
        scheme,
        small_config(free_space_bytes=1 * MB),
        faulted_trace(),
        FaultSchedule.parse("fail@1.5:M0"),
    )
    assert result.consistent
    assert result.rebuilds
    assert digest(result.to_dict()) == FAULTED_DIGESTS[scheme]
