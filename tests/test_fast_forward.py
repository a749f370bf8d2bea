"""Fast-forwarded copy chains against the event path.

A centralized single-target copy chain (every rebuild, GRAID and
RoLo-E destage) copies whole batches inline in its steady-state loop
(``DestageProcess._steady``), entered from a read's completion event,
while nothing else can interleave with it.  Each scenario here runs
three ways, every disk built (replacements included) getting:

* nothing: chains run inline;
* a no-op idle listener: the loop refuses every chain, which stays on
  the event path;
* a no-op op observer: every chain stays on the event path.

The three runs must agree on everything they produce: ``RunMetrics``,
the whole ``FaultRunResult``, the verification verdict (violations,
invariant sweeps, reads checked), the engine's ``events_processed`` and
the end time.
"""

import json

import pytest

from repro.core import DataLossError
from repro.core.destage import DestageProcess
from repro.faults import run_faulted
from repro.traces.compiled import truncate_trace
from repro.verify import InvariantChecker, ReferenceModel, Scenario
from repro.verify.fuzzer import FUZZ_SCHEMES
from tests.conftest import listen_on_every_disk, observe_every_disk

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


def _verified_run(scenario, chains, sample_every=64):
    """What ``run_scenario`` runs, with its parts kept for comparison;
    ``sample_every`` is the invariant checker's stride."""
    trace = truncate_trace(scenario.build_trace(), scenario.n_requests)
    reference = ReferenceModel(trace=trace)
    checker = InvariantChecker(sample_every=sample_every)
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
    except DataLossError as exc:
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


#: How each run attaches to every disk built, replacements included.
PATHS = {
    "as-is": None,
    "listener": listen_on_every_disk,
    "event-path": observe_every_disk,
}


def _runs(monkeypatch, scenario, paths=PATHS, sample_every=64):
    """``_verified_run`` of ``scenario`` once per path, as a dict."""
    chains = []
    init = DestageProcess.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        chains.append(self)

    monkeypatch.setattr(DestageProcess, "__init__", recording_init)
    outcomes = {}
    for path in paths:
        chains.clear()
        with monkeypatch.context() as patch:
            if PATHS[path] is not None:
                PATHS[path](patch)
            outcomes[path] = _verified_run(scenario, chains, sample_every)
    return outcomes


def _dump(outcome):
    return json.dumps(outcome, sort_keys=True)


def _assert_three_way(outcomes):
    """The three paths agree; only the first ran batches inline."""
    fast, listened, slow = (outcomes[path] for path in PATHS)
    assert fast.pop("inline_batches") > 0
    assert listened.pop("inline_batches") == slow.pop("inline_batches") == 0
    assert _dump(fast) == _dump(listened) == _dump(slow)


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
@pytest.mark.parametrize("scheme", FUZZ_SCHEMES)
def test_fast_forward_matches_event_path(monkeypatch, scheme, condition):
    outcomes = _runs(monkeypatch, _scenario(scheme, CONDITIONS[condition]))
    # The rebuild ran inline in two runs and on the event path in the third.
    assert outcomes["as-is"]["inline_batches"] > 4000
    _assert_three_way(outcomes)
    assert "result" in outcomes["as-is"]
    assert not outcomes["as-is"]["violations"]


@pytest.mark.parametrize("sample_every", [1, 2, 3, 63, 64])
@pytest.mark.parametrize("scheme", FUZZ_SCHEMES)
def test_stride_parity(monkeypatch, scheme, sample_every):
    """Sweeps land on the same events with the same state whatever the
    stride: odd and even strides end steady-state blocks on a batch's
    read and on its write.  At stride 1 every block's budget is its
    entering read alone, so no batch completes inline."""
    outcomes = _runs(
        monkeypatch, _scenario(scheme, CONDITIONS["primary-fail"]),
        paths=("as-is", "event-path"), sample_every=sample_every,
    )
    fast, slow = outcomes["as-is"], outcomes["event-path"]
    assert (fast.pop("inline_batches") > 0) == (sample_every > 1)
    assert slow.pop("inline_batches") == 0
    assert _dump(fast) == _dump(slow)
    assert fast["invariant_sweeps"] >= fast["events_processed"] // sample_every


@pytest.mark.parametrize("scheme", FUZZ_SCHEMES)
def test_failing_the_rebuild_source_fails_alike(monkeypatch, scheme):
    """A second failure of the rebuild's source aborts the rebuild, so
    the pair has lost both copies, as when neither failure rebuilds: the
    next access to it raises ``DataLossError``.  All three paths raise it
    at the same instant, after the same events."""
    spec = "fail@100:P0,fail@150:M0:norebuild"
    outcomes = _runs(monkeypatch, _scenario(scheme, spec))
    _assert_three_way(outcomes)
    error = "pair 0 has lost both copies"
    assert outcomes["as-is"]["error"] == error
    unrebuilt = _runs(
        monkeypatch,
        _scenario(scheme, "fail@100:P0:norebuild,fail@150:M0:norebuild"),
        paths=("as-is",),
    )
    assert unrebuilt["as-is"]["error"] == error
