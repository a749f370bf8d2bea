"""Pinned metrics-registry digests of metered runs, and the label census.

A metered run (:class:`~repro.obs.metrics.RunInstrumentation`) folds
what the run did into a :class:`~repro.obs.metrics.MetricsRegistry`:
the per-label event census, the sampled heap/power/dirty/occupancy
peaks, the power histogram, disk op counts and service times, request
latencies and the harvested disk and controller counters.  The digests
in ``tests/golden/metered_registry.json`` pin all of it for three
metered cells, a metered ``fail@`` + rebuild fault cell, and a metered
verification scenario, where the meter's sample stride and the
invariant checker's sweep stride run together.

A digest covers ``registry.to_dict()`` minus the wall-clock family
``sim_wall_seconds`` and minus the families' help strings, which
document a metric rather than measure the run.

Regenerate (only when a change of the metered output is intended) with
``PYTHONPATH=src python -m tests.test_metered_registry_golden``.
"""

import collections
import hashlib
import json
import os

import pytest

from repro.experiments.runner import workload_cell
from repro.faults.campaign import FaultCell
from repro.obs import MetricsRegistry
from repro.sim import Simulator
from repro.verify.fuzzer import Scenario, run_scenario
from tests.conftest import entry_label

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "metered_registry.json"
)

CELL_SCHEMES = ("rolo-r", "rolo-e", "graid")


def _cell(scheme):
    return workload_cell(scheme, "src2_2", scale=0.004, n_pairs=4)


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


def registry_digest(registry: MetricsRegistry) -> str:
    data = registry.to_dict()
    families = data["families"]
    families.pop("sim_wall_seconds", None)
    for family in families.values():
        family.pop("help")
    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _metered_runs():
    """``name -> callable(registry)`` for every pinned metered run."""
    runs = {
        f"cell:{scheme}": (
            lambda registry, s=scheme: _cell(s).execute_metered(
                registry=registry
            )
        )
        for scheme in CELL_SCHEMES
    }
    runs["fault:rolo-r:fail@15:M0"] = lambda registry: FaultCell(
        _cell("rolo-r"), "fail@15:M0"
    ).execute(registry=registry)
    runs["scenario:rolo-e:fail@100:P0"] = lambda registry: run_scenario(
        _scenario("rolo-e", "fail@100:P0"), registry=registry
    )
    return runs


def metered_digests() -> dict:
    digests = {}
    for name, run in _metered_runs().items():
        registry = MetricsRegistry()
        run(registry)
        digests[name] = registry_digest(registry)
    return digests


@pytest.mark.parametrize("name", sorted(_metered_runs()))
def test_metered_registry_digest(name):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    registry = MetricsRegistry()
    _metered_runs()[name](registry)
    assert registry_digest(registry) == golden[name]


# ----------------------------------------------------------------------
# The harvested label census against a per-event count
# ----------------------------------------------------------------------
_SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e", "raid5", "rolo-5")

#: A fault per scheme: fail + rebuild where the scheme has ``fail_disk``,
#: a slowdown and a latent sector error on the parity schemes.
_FAULTS = {
    "raid5": "slow@50:D1:4x100,lse@80:D0:0+64",
    "rolo-5": "slow@50:D1:4x100,lse@80:D0:0+64",
}


def _counting_loop(counts):
    """A run loop that counts every dispatched event by label before
    dispatching it through :meth:`Simulator.step`."""

    def loop(sim, until):
        while not sim._stopped:
            head = sim._head()
            if head is None or (until is not None and head[0] > until):
                break
            counts[entry_label(head)] += 1
            sim.step()

    return loop


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("scheme", _SCHEMES)
def test_label_census_matches_per_event_count(scheme, faulted, monkeypatch):
    counts = collections.Counter()
    loop = _counting_loop(counts)
    monkeypatch.setattr(Simulator, "_run_nohook", loop)
    monkeypatch.setattr(Simulator, "_run_strided", loop)
    spec = _FAULTS.get(scheme, "fail@100:P0") if faulted else ""
    registry = MetricsRegistry()
    result = run_scenario(_scenario(scheme, spec), registry=registry)
    assert result.ok
    by_suffix = collections.Counter()
    for label, count in counts.items():
        by_suffix[label.rpartition(":")[2] or label] += count
    family = registry.to_dict()["families"]["sim_events_by_label_total"]
    census = {
        child["labels"]["label"]: child["value"]
        for child in family["children"]
    }
    assert census == dict(by_suffix)
    (total,) = registry.to_dict()["families"]["sim_events_total"]["children"]
    assert sum(census.values()) == total["value"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(metered_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
