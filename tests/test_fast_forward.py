"""Fast-forwarded copy chains against the event path.

A centralized copy chain (every rebuild, GRAID and RoLo-E destage) runs
its batches inline while nothing else can interleave with it
(``DestageProcess._stretch``).  Each scenario here runs twice: as is, and
with a no-op op observer on every disk, replacements included, which
keeps every chain on the event path.  The two runs must agree on
everything they produce: ``RunMetrics``, the whole ``FaultRunResult``,
the verification verdict (violations, invariant sweeps, reads checked)
and the engine's ``events_processed``.
"""

import json

import pytest

from repro.core.destage import DestageProcess
from repro.disk.disk import DiskFailedError
from repro.faults import run_faulted
from repro.traces.compiled import truncate_trace
from repro.verify import InvariantChecker, ReferenceModel, Scenario
from repro.verify.fuzzer import FUZZ_SCHEMES
from tests.conftest import observe_every_disk

#: The trace prefix (150 web_1 requests) spans ~567 s; a rebuild started
#: at 100 s copies 4,670 batches and ends near 780 s.
CONDITIONS = {
    "primary-fail": "fail@100:P0",
    "mirror-fail": "fail@100:M0",
    # M0 is the rebuild source: slowed while it streams the copy.
    "fail-slow": "fail@100:P0,slow@150:M0:3x120",
    # Planted just ahead of the copy's read position (~2.7 GiB by then),
    # so a rebuild read surfaces it.
    "fail-lse": "fail@100:P0,lse@200:M0:6291456+16",
    # Fails the other pair while the rebuild runs.
    "second-fail": "fail@100:P0,fail@300:M1:norebuild",
}


def _scenario(scheme, spec):
    return Scenario(
        scheme=scheme,
        workload="web_1",
        scale=0.02,
        n_pairs=2,
        seed=8,
        n_requests=150,
        fault_spec=spec,
    )


def _verified_run(scenario, chains):
    """What ``run_scenario`` runs, with its parts kept for comparison."""
    trace = truncate_trace(scenario.build_trace(), scenario.n_requests)
    reference = ReferenceModel(trace=trace)
    checker = InvariantChecker()
    outcome = {}
    try:
        result = run_faulted(
            scenario.scheme,
            scenario.resolve_config(),
            trace,
            scenario.schedule(),
            oracle=reference,
            checker=checker,
        )
        outcome["result"] = result.to_dict()
    except DiskFailedError as exc:
        outcome["error"] = str(exc)
    outcome.update(
        violations=list(reference.violations) + list(checker.violations),
        invariant_sweeps=checker.checks_run,
        reads_checked=reference.reads_checked,
        events_processed=checker.sim.events_processed,
        now=checker.sim.now,
        inline_batches=sum(chain.inline_batches for chain in chains),
    )
    return outcome


def _both_paths(monkeypatch, scenario):
    chains = []
    init = DestageProcess.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        chains.append(self)

    monkeypatch.setattr(DestageProcess, "__init__", recording_init)
    fast = _verified_run(scenario, chains)
    chains.clear()
    with monkeypatch.context() as patch:
        observe_every_disk(patch)
        slow = _verified_run(scenario, chains)
    return fast, slow


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
@pytest.mark.parametrize("scheme", FUZZ_SCHEMES)
def test_fast_forward_matches_event_path(monkeypatch, scheme, condition):
    fast, slow = _both_paths(monkeypatch, _scenario(scheme, CONDITIONS[condition]))
    # The rebuild ran inline in one run and on the event path in the other.
    assert fast.pop("inline_batches") > 4000
    assert slow.pop("inline_batches") == 0
    assert json.dumps(fast, sort_keys=True) == json.dumps(slow, sort_keys=True)
    assert "result" in fast and not fast["violations"]


@pytest.mark.parametrize("scheme", FUZZ_SCHEMES)
def test_failing_the_rebuild_source_fails_alike(monkeypatch, scheme):
    """A second failure of the rebuild's source is not survivable here:
    the next copy read raises ``DiskFailedError``.  Both paths raise it at
    the same instant, after the same events."""
    spec = "fail@100:P0,fail@150:M0:norebuild"
    fast, slow = _both_paths(monkeypatch, _scenario(scheme, spec))
    assert fast.pop("inline_batches") > 0
    assert slow.pop("inline_batches") == 0
    assert fast == slow
    assert fast["error"] == "M0 has failed"
