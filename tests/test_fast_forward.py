"""Fast-forwarded copy chains against the event path.

A centralized copy chain with one target (every rebuild, GRAID's
destage, the RoLo drain) copies batches inline (``DestageProcess._solo``) from a read's
completion while it runs alone; interleaved chains and RoLo-E's
two-target chains stay on the event path.  Each scenario here runs three
ways, every disk built (replacements included) getting:

* nothing: lone chains run inline;
* a no-op idle listener: ``_solo`` refuses every read, which stays on
  the event path;
* a no-op op observer: every chain stays on the event path.

The three runs must agree on everything they produce: ``RunMetrics``,
the whole ``FaultRunResult``, the verification verdict (violations,
invariant sweeps, reads checked), every disk's counters, head, idle
gaps and power integration, the engine's ``events_processed`` and the
end time.
"""

import collections
import json

import pytest

from repro.core import DataLossError, destage
from repro.core.destage import DestageProcess
from repro.disk.disk import Disk, OpKind
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

#: Clean runs in which every pair destages at once, so one centralized
#: chain per pair interleaves with the others on the heap.
INTERLEAVED = {
    "graid-src2_2": ("graid", "src2_2", 0.004, 8),
    "graid-proj_0": ("graid", "proj_0", 0.002, 10),
    "rolo-e-src2_2": ("rolo-e", "src2_2", 0.004, 8),
    "rolo-e-proj_0": ("rolo-e", "proj_0", 0.002, 10),
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


def _interleaved(cell):
    scheme, workload, scale, n_pairs = INTERLEAVED[cell]
    return Scenario(
        scheme=scheme,
        workload=workload,
        scale=scale,
        n_pairs=n_pairs,
        seed=8,
        n_requests=None,
    )


def _disk_state(disk):
    """A disk's counters, head, idle gaps and power integration."""
    power = disk.power
    return (
        disk.name, disk.ops_completed, disk.bytes_transferred,
        disk.busy_time, disk.foreground_ops, disk.background_ops,
        disk._head_sector, disk._idle_since,
        list(disk.idle_gap_histogram.counts), power.state.value,
        power.energy_joules, power._last_time,
        sorted((s.value, t) for s, t in power.state_durations.items()),
    )


def _verified_run(scenario, chains, sample_every=64, disks=()):
    """What ``run_scenario`` runs, with its parts kept for comparison;
    ``sample_every`` is the invariant checker's stride, ``disks`` every
    disk the run builds."""
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
        disks=[_disk_state(disk) for disk in disks],
        inline_batches=sum(chain.inline_batches for chain in chains),
        # One read and a write per target for each batch issued.
        copy_completions=sum(
            chain._next_batch * (1 + len(chain.targets))
            for chain in chains
            if not chain.idle_gated
        ),
    )
    return outcome


#: How each run attaches to every disk built, replacements included.
PATHS = {
    "as-is": None,
    "listener": listen_on_every_disk,
    "event-path": observe_every_disk,
}


def _runs(monkeypatch, scenario, paths=PATHS, sample_every=64):
    """``_verified_run`` of ``scenario`` once per path, as a dict, with
    the completions ``_solo`` took as ``inline_completions``."""
    chains = []
    disks = []
    taken = []
    init = DestageProcess.__init__
    disk_init = Disk.__init__
    solo = DestageProcess._solo

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        chains.append(self)

    def recording_disk_init(self, *args, **kwargs):
        disk_init(self, *args, **kwargs)
        disks.append(self)

    def counting_solo(self, op):
        taken.append(solo(self, op))
        return taken[-1]

    monkeypatch.setattr(DestageProcess, "__init__", recording_init)
    monkeypatch.setattr(Disk, "__init__", recording_disk_init)
    monkeypatch.setattr(DestageProcess, "_solo", counting_solo)
    outcomes = {}
    for path in paths:
        chains.clear()
        disks.clear()
        taken.clear()
        with monkeypatch.context() as patch:
            if PATHS[path] is not None:
                PATHS[path](patch)
            outcomes[path] = _verified_run(
                scenario, chains, sample_every, disks
            )
        outcomes[path]["inline_completions"] = sum(taken)
        outcomes[path]["concurrent_chains"] = max(
            collections.Counter(
                chain.started_at for chain in chains if not chain.idle_gated
            ).values(),
            default=0,
        )
    return outcomes


def _dump(outcome):
    return json.dumps(outcome, sort_keys=True)


def _assert_three_way(outcomes, alone=True):
    """The three paths agree; only the first ran batches inline, and it
    did if a chain ran ``alone``."""
    fast, listened, slow = (outcomes[path] for path in PATHS)
    inline = fast.pop("inline_batches"), fast.pop("inline_completions")
    if alone:
        assert min(inline) > 0
    assert listened.pop("inline_batches") == slow.pop("inline_batches") == 0
    assert listened.pop("inline_completions") == 0
    assert slow.pop("inline_completions") == 0
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
    stride: odd and even strides end inline stretches on a batch's read
    and on its write.  At stride 1 the countdown stands at one at every
    read, so no batch completes inline."""
    outcomes = _runs(
        monkeypatch, _scenario(scheme, CONDITIONS["primary-fail"]),
        paths=("as-is", "event-path"), sample_every=sample_every,
    )
    fast, slow = outcomes["as-is"], outcomes["event-path"]
    assert (fast.pop("inline_batches") > 0) == (sample_every > 1)
    assert slow.pop("inline_batches") == 0
    assert (fast.pop("inline_completions") > 0) == (sample_every > 1)
    assert slow.pop("inline_completions") == 0
    assert _dump(fast) == _dump(slow)
    assert fast["invariant_sweeps"] >= fast["events_processed"] // sample_every


@pytest.mark.parametrize("cell", sorted(INTERLEAVED))
def test_interleaved_chains_match_event_path(monkeypatch, cell):
    """Eight or more pairs destage at once, their chains interleaving on
    the heap (on RoLo-E with shared sources and two targets per batch):
    what a chain copies inline while it runs alone, and everything else on
    the event path, ends as the event path does."""
    outcomes = _runs(monkeypatch, _interleaved(cell))
    fast = outcomes["as-is"]
    assert fast["concurrent_chains"] >= 8
    _assert_three_way(outcomes, alone=False)
    assert "result" in fast and not fast["violations"]


@pytest.mark.parametrize("sample_every", [1, 2, 3, 63, 64])
def test_interleaved_stride_parity(monkeypatch, sample_every):
    """Sweeps land on the same events with the same state while many
    chains interleave: strides land on reads and on writes of different
    chains.  At stride 1 no read is taken inline."""
    outcomes = _runs(
        monkeypatch, _interleaved("graid-proj_0"),
        paths=("as-is", "event-path"), sample_every=sample_every,
    )
    fast, slow = outcomes["as-is"], outcomes["event-path"]
    taken = fast.pop("inline_completions")
    if sample_every == 1:
        assert taken == 0
    assert slow.pop("inline_completions") == 0
    fast.pop("inline_batches")
    slow.pop("inline_batches")
    assert _dump(fast) == _dump(slow)
    assert fast["invariant_sweeps"] >= fast["events_processed"] // sample_every


@pytest.mark.parametrize("cell", sorted(INTERLEAVED))
def test_only_lone_chain_reads_carry_the_hook(monkeypatch, cell):
    """Only a centralized single-target chain's reads carry the
    ``dispatch`` hook: no write does, and no op of RoLo-E's two-target
    destage chains, whose completions never reach ``_chain_event``."""
    calls = []
    started = collections.Counter()
    chain_event = destage._chain_event
    start = Disk._start

    def counting_chain_event(disk, op):
        calls.append(op.kind)
        chain_event(disk, op)

    def recording_start(self, op, state):
        chain = getattr(op.on_complete, "__self__", None)
        if isinstance(chain, DestageProcess):
            hooked = op.dispatch is not None
            started[op.kind, len(chain.targets), hooked] += 1
        return start(self, op, state)

    monkeypatch.setattr(destage, "_chain_event", counting_chain_event)
    monkeypatch.setattr(Disk, "_start", recording_start)
    outcome = _verified_run(_interleaved(cell), chains=())
    assert "result" in outcome and not outcome["violations"]
    hooked = [key for key in started if key[2]]
    assert all(kind is OpKind.READ and n == 1 for kind, n, _ in hooked)
    if cell.startswith("rolo-e"):
        assert started[OpKind.WRITE, 2, False] > 0
        assert not hooked and not calls
    else:
        assert started[OpKind.READ, 1, True] > 0 and calls


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
