"""Self-checks of the benchmark: ``python3 -m pytest perfbench``.

The workloads run here at small horizons (recorded digests, not golden
ones), so the suite takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cases
import hostspeed
import layers
import run

ROOT = Path(__file__).resolve().parent.parent

#: Units whose values are exact counts of work or modelled quantities.
COUNT_UNITS = {"count", "count/req", "B"}


class SmallFig10(cases.PaperFig10):
    SCALES = {"src2_2": 0.002, "proj_0": 0.0006}


class SmallFuzz(cases.VerifyFuzz):
    MIX = {"clean": 6, "fail": 2, "soup": 2}
    POOL = 80
    REFERENCE_SCALE = 0.002


class SmallObserve(cases.ObserveAttribute):
    SCALE = 0.002


def small_case(name, seed):
    if name == "verify-fuzz":
        return SmallFuzz(seed, workers=2)
    return {"paper-fig10": SmallFig10, "observe-attribute": SmallObserve}[
        name
    ](seed)


def traced_pass(name, seed):
    """Untraced and traced round of one small case.

    Returns ``(untraced digests, traced digests, per-layer metrics,
    end-to-end metrics)``.
    """
    case = small_case(name, seed)
    case.setup()
    plain_tally = cases.Tally({}, record=True)
    case.reference(plain_tally)
    plain = case.run_round(plain_tally)
    with layers.traced() as log:
        case.setup()
        traced_tally = cases.Tally({}, record=True)
        traced = case.run_round(traced_tally)
    assert plain_tally.failures == [] and traced_tally.failures == []
    return (
        plain_tally.golden,
        traced_tally.golden,
        run.per_layer(log, plain, traced),
        run.end_to_end(case, [plain], [0.1]),
    )


@pytest.fixture(scope="module", params=run.WORKLOADS)
def two_passes(request):
    return request.param, traced_pass(request.param, 0), traced_pass(
        request.param, 0
    )


def test_traced_run_metrics_match_untraced_byte_for_byte(two_passes):
    _, (plain, traced, _, _), _ = two_passes
    assert traced
    assert {k: v for k, v in plain.items() if k in traced} == traced


def test_count_metrics_repeat_exactly(two_passes):
    _, (_, _, first, _), (_, _, second, _) = two_passes
    counts = [n for n, unit in run.PER_LAYER.items() if unit in COUNT_UNITS]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["sim.events_per_req"] > 0


def test_second_seed_changes_inputs_not_metric_names(two_passes):
    name, (digests, _, layer_metrics, e2e), _ = two_passes
    other, _, other_layers, other_e2e = traced_pass(name, 1)
    assert set(digests) == set(other)
    assert all(digests[label] != other[label] for label in digests)
    assert set(layer_metrics) == set(other_layers) == set(run.PER_LAYER)
    assert set(e2e) == set(other_e2e) == set(run.END_TO_END)
    assert all(value > 0 for value in e2e.values())


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_golden_digests_cover_every_input_seed():
    golden = json.loads((cases.HERE / "golden.json").read_text())
    assert golden["seeds"] == cases.GOLDEN_SEEDS
    for name in run.WORKLOADS:
        seeds = golden["digests"][name]
        assert sorted(seeds, key=int) == [
            str(s) for s in range(cases.GOLDEN_SEEDS)
        ]
        assert len({json.dumps(d, sort_keys=True) for d in seeds.values()}) \
            == cases.GOLDEN_SEEDS


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-fig10",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_scaled_time_uses_the_probes_around_the_interval():
    speed = hostspeed.HostSpeed()
    speed.sample()
    started = time.perf_counter()
    time.sleep(0.01)
    ended = time.perf_counter()
    speed.sample()
    probe = speed.probe_s(started, ended)
    assert probe == pytest.approx(
        (speed.samples[0][2] + speed.samples[1][2]) / 2
    )
    assert speed.scaled(started, ended) == pytest.approx(
        (ended - started) * hostspeed.REFERENCE_PROBE_S / probe
    )
    with pytest.raises(RuntimeError):
        speed.probe_s(ended + 100.0, ended + 101.0)


def test_no_process_outlives_a_pool_run():
    """``run_fuzz`` publishes traces to shared memory, which starts
    multiprocessing's resource tracker; ``run.main`` stops and reaps it."""
    from multiprocessing import resource_tracker

    case = SmallFuzz(0, workers=2)
    case.setup()
    case.run_round(cases.Tally({}, record=True))
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None and Path(f"/proc/{pid}").exists()
    run.stop_resource_tracker()
    assert not Path(f"/proc/{pid}").exists()
