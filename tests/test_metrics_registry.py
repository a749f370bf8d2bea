"""Tests for the metrics registry (``repro.obs.metrics``).

Four pillars from the PR's acceptance criteria:

1. Registry arithmetic — counters, gauge aggregation modes, histogram
   bucket/sum/min/max bookkeeping, and name/label validation.
2. Quantile fidelity — the P² sketches track a sorted-sample ground
   truth within a few percent on a seeded heavy-tailed stream, and the
   bucket-interpolation fallback used after merges stays sane.
3. Merge associativity — worker registries merge into the same snapshot
   regardless of arrival order, which is what lets ``run_grouped``
   fold registries in completion order.
4. The observe-only discipline — metered runs (plain, parallel, and
   fault-injected) produce RunMetrics byte-identical to unmetered runs
   across all five schemes.
"""

import json
import math
import random

import pytest

from repro.experiments.parallel import (
    SweepProgress,
    execute_cells,
)
from repro.experiments.runner import workload_cell
from repro.faults.campaign import fault_cell, run_campaign
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    MetricCounter,
    MetricHistogram,
    MetricsRegistry,
    TRACKED_QUANTILES,
    P2Quantile,
    lint_prometheus,
    log_buckets,
    read_snapshot,
    render_registry,
)

ALL_SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")


def _metrics_dump(metrics) -> str:
    """Canonical byte representation of a RunMetrics for equality checks."""
    return json.dumps(metrics.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Registry arithmetic
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_inc_and_negative_rejection(self):
        c = MetricCounter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_modes(self):
        g = Gauge()
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == 4.0
        g.set_max(10.0)
        g.set_max(7.0)
        assert g.value == 10.0

    def test_log_buckets_monotone(self):
        bounds = log_buckets(1e-4, 1.6, 29)
        assert len(bounds) == 29
        assert all(b < a for b, a in zip(bounds, bounds[1:]))
        assert bounds == DEFAULT_LATENCY_BUCKETS

    def test_histogram_bookkeeping(self):
        h = MetricHistogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.min == 0.5
        assert h.max == 100.0
        # 0.5 -> bucket le=1.0, 1.5 -> le=2.0, 3.0 -> le=4.0, 100 -> +Inf
        assert list(h.counts) == [1, 1, 1, 1]

    def test_registry_validates_names_and_labels(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", **{"bad label": "x"})
        c1 = reg.counter("ops_total", scheme="RoLo-P")
        c2 = reg.counter("ops_total", scheme="RoLo-P")
        assert c1 is c2
        assert reg.get("ops_total", scheme="RoLo-P") is c1
        assert reg.get("missing_total") is None

    def test_registry_rejects_kind_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("ops_total")
        with pytest.raises(ValueError):
            reg.gauge("ops_total")


# ----------------------------------------------------------------------
# Quantile fidelity
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_p2_exact_below_five_samples(self):
        sketch = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            sketch.observe(v)
        assert sketch.value() == 2.0

    def test_p2_exact_at_five_samples(self):
        for q, expected in ((0.5, 3.0), (0.95, 5.0)):
            sketch = P2Quantile(q)
            for v in (5.0, 1.0, 4.0, 2.0, 3.0):
                sketch.observe(v)
            assert sketch.value() == expected

    def test_p2_tracks_sorted_ground_truth(self):
        rng = random.Random(1234)
        samples = [rng.lognormvariate(0.0, 1.0) for _ in range(20000)]
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99):
            sketch = P2Quantile(q)
            for v in samples:
                sketch.observe(v)
            truth = ordered[int(q * (len(ordered) - 1))]
            assert sketch.value() == pytest.approx(truth, rel=0.05)

    def test_histogram_quantile_uses_sketch_then_buckets(self):
        rng = random.Random(7)
        bounds = log_buckets(1e-3, 1.3, 40)
        h = MetricHistogram(bounds=bounds)
        samples = [rng.lognormvariate(-2.0, 0.5) for _ in range(5000)]
        for v in samples:
            h.observe(v)
        truth = sorted(samples)[int(0.95 * (len(samples) - 1))]
        assert not h.merged
        assert h.quantile(0.95) == pytest.approx(truth, rel=0.05)
        # The bucket fallback is coarser but still within a bucket ratio.
        assert h.bucket_quantile(0.95) == pytest.approx(truth, rel=0.35)

    def test_p2_dict_roundtrip(self):
        sketch = P2Quantile(0.95)
        rng = random.Random(5)
        for _ in range(100):
            sketch.observe(rng.random())
        clone = P2Quantile.from_dict(sketch.to_dict())
        assert clone.value() == sketch.value()


class ReferenceP2(P2Quantile):
    """P² with the cell-search loop and helper methods of the textbook
    formulation: the oracle for the straight-line ``observe``."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        self.count += 1
        if self.count <= 5:
            self._buf.append(value)
            if self.count == 5:
                self._buf.sort()
                self._heights = list(self._buf)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                q = self.q
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0,
                ]
                self._buf = []
            return
        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            for i in range(1, 4):
                if value < heights[i]:
                    break
                cell = i
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        q = self.q
        increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        desired = self._desired
        for i in range(5):
            desired[i] += increments[i]
        for i in range(1, 4):
            delta = desired[i] - positions[i]
            right_gap = positions[i + 1] - positions[i]
            left_gap = positions[i - 1] - positions[i]
            if (delta >= 1.0 and right_gap > 1.0) or (
                delta <= -1.0 and left_gap < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])


def _reference_bucket(bounds, value):
    """Index of the first bound >= value, by hand-written bisection."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if bounds[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _p2_streams():
    rng = random.Random(2024)
    yield "lognormal", [rng.lognormvariate(0.0, 1.5) for _ in range(3000)]
    yield "uniform", [rng.random() for _ in range(3000)]
    yield "ties", [float(rng.randint(0, 4)) for _ in range(3000)]
    yield "constant", [0.25] * 500
    yield "increasing", [float(i) for i in range(1000)]
    yield "decreasing", [float(-i) for i in range(1000)]
    for n in range(6):
        yield f"short-{n}", [rng.gauss(0.0, 1.0) for _ in range(n)]


class TestP2Oracle:
    @pytest.mark.parametrize("q", TRACKED_QUANTILES)
    @pytest.mark.parametrize(
        "stream", list(_p2_streams()), ids=lambda s: s[0]
    )
    def test_states_match_reference(self, q, stream):
        _, values = stream
        sketch, oracle = P2Quantile(q), ReferenceP2(q)
        for value in values:
            sketch.observe(value)
            oracle.observe(value)
            assert sketch.to_dict() == oracle.to_dict()
        assert sketch.value() == oracle.value()

    @pytest.mark.parametrize("q", TRACKED_QUANTILES)
    def test_values_on_marker_heights_match_reference(self, q):
        # Feed the sketch its own marker heights (and their float
        # neighbours): every cell-boundary comparison lands on equality.
        rng = random.Random(11)
        sketch, oracle = P2Quantile(q), ReferenceP2(q)
        for _ in range(5):
            value = rng.random()
            sketch.observe(value)
            oracle.observe(value)
        for step in range(2000):
            height = oracle._heights[step % 5]
            value = rng.choice(
                (
                    height,
                    math.nextafter(height, math.inf),
                    math.nextafter(height, -math.inf),
                    rng.random(),
                )
            )
            sketch.observe(value)
            oracle.observe(value)
            assert sketch.to_dict() == oracle.to_dict()

    def test_histogram_bucket_index_on_bounds(self):
        bounds = DEFAULT_LATENCY_BUCKETS
        probes = [0.0, -1.0, math.inf, bounds[0] / 2, bounds[-1] * 2]
        for b in bounds:
            probes += [b, math.nextafter(b, math.inf), math.nextafter(b, 0.0)]
        for value in probes:
            hist = MetricHistogram(bounds=bounds)
            hist.observe(value)
            expected = [0] * (len(bounds) + 1)
            expected[_reference_bucket(bounds, value)] = 1
            assert hist.counts == expected, value


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _make_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    reg = MetricsRegistry()
    reg.counter("events_total", scheme="RoLo-P").inc(seed * 10 + 1)
    reg.gauge("peak_depth", agg="max").set(float(seed))
    reg.gauge("in_flight", agg="sum").set(float(seed) + 0.5)
    h = reg.histogram("latency_seconds", buckets=log_buckets(1e-3, 2.0, 12))
    for _ in range(200):
        h.observe(rng.lognormvariate(-3.0, 1.0))
    return reg

def _rounded(value):
    """Round floats to 9 significant digits so merge-order comparisons
    ignore the last-ULP drift of non-associative float addition."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def test_merge_is_order_independent():
    dumps = []
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        merged = MetricsRegistry()
        for seed in order:
            merged.merge(_make_registry(seed))
        dumps.append(json.dumps(_rounded(merged.to_dict()), sort_keys=True))
    assert dumps[0] == dumps[1] == dumps[2]


def test_merge_sums_counters_and_respects_gauge_agg():
    merged = MetricsRegistry()
    merged.merge(_make_registry(1))
    merged.merge(_make_registry(4))
    assert merged.get("events_total", scheme="RoLo-P").value == 11 + 41
    assert merged.get("peak_depth").value == 4.0  # max agg
    assert merged.get("in_flight").value == 1.5 + 4.5  # sum agg


def test_merged_histograms_drop_sketches_but_keep_exact_moments():
    a = _make_registry(1)
    b = _make_registry(2)
    ha = a.get("latency_seconds")
    hb = b.get("latency_seconds")
    exact = {
        "count": ha.count + hb.count,
        "sum": ha.sum + hb.sum,
        "min": min(ha.min, hb.min),
        "max": max(ha.max, hb.max),
    }
    a.merge(b)
    hm = a.get("latency_seconds")
    assert hm.merged
    assert hm.count == exact["count"]
    assert hm.sum == pytest.approx(exact["sum"])
    assert hm.min == exact["min"]
    assert hm.max == exact["max"]
    # Quantiles still answer (bucket interpolation) and stay ordered.
    assert 0 < hm.quantile(0.5) <= hm.quantile(0.95) <= hm.quantile(0.99)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_prometheus_output_lints_clean(self):
        reg = _make_registry(3)
        problems = lint_prometheus(reg.to_prometheus())
        assert problems == []

    def test_lint_catches_malformed_exposition(self):
        assert lint_prometheus("no_type_decl 1.0\n")
        assert lint_prometheus(
            "# TYPE x counter\nx{unclosed 1.0\n"
        )

    def test_jsonl_roundtrip_is_exact(self, tmp_path):
        reg = _make_registry(3)
        path = tmp_path / "deep" / "dir" / "metrics.jsonl"
        families = reg.write_jsonl(str(path))
        assert families == 4
        clone = read_snapshot(str(path))
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            reg.to_dict(), sort_keys=True
        )

    def test_read_snapshot_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "family", "name": "x"}\n')
        with pytest.raises(ValueError):
            read_snapshot(str(path))

    def test_render_registry_mentions_every_family(self):
        reg = _make_registry(3)
        text = render_registry(reg)
        for name in (
            "events_total",
            "peak_depth",
            "in_flight",
            "latency_seconds",
        ):
            assert name in text


# ----------------------------------------------------------------------
# Observe-only discipline: metered == unmetered, byte for byte
# ----------------------------------------------------------------------
class TestByteIdenticalRunMetrics:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_metered_run_matches_plain_run(self, scheme):
        cell = workload_cell(
            scheme, "wdev_0", scale=0.02, n_pairs=4, seed=3
        )
        plain = cell.execute()
        metered, registry = cell.execute_metered()
        assert _metrics_dump(metered) == _metrics_dump(plain)
        # The registry actually observed the run.
        events = [
            inst
            for name, _labels, inst in registry.samples()
            if name == "sim_events_total"
        ]
        assert events and events[0].value > 0

    @pytest.mark.parametrize("scheme", ("rolo-p", "raid10"))
    def test_metered_faulted_run_matches_plain(self, scheme):
        schedule = FaultSchedule.single_failure("P0", 50.0, rebuild=True)
        cell = fault_cell(
            scheme, "wdev_0", schedule, scale=0.02, n_pairs=4, seed=3
        )
        plain = cell.execute()
        registry = MetricsRegistry()
        metered = cell.execute(registry=registry)
        assert json.dumps(
            metered.to_dict(), sort_keys=True
        ) == json.dumps(plain.to_dict(), sort_keys=True)
        events = [
            inst
            for name, _labels, inst in registry.samples()
            if name == "sim_events_total"
        ]
        assert events and events[0].value > 0

    def test_event_labels_fold_to_suffixes(self):
        cell = workload_cell(
            "rolo-e", "wdev_0", scale=0.02, n_pairs=4, seed=3
        )
        _, registry = cell.execute_metered()
        by_label = {
            labels["label"]: inst.value
            for name, labels, inst in registry.samples()
            if name == "sim_events_by_label_total"
        }
        (total,) = [
            inst.value
            for name, _labels, inst in registry.samples()
            if name == "sim_events_total"
        ]
        assert len(by_label) > 1
        assert all(":" not in label for label in by_label)
        assert sum(by_label.values()) == total
        assert lint_prometheus(registry.to_prometheus()) == []

    def test_parallel_metered_sweep_merges_worker_registries(self):
        cells = [
            workload_cell(s, "wdev_0", scale=0.01, n_pairs=2, seed=5)
            for s in ("raid10", "rolo-p", "graid")
        ]
        reg = MetricsRegistry()
        stats = execute_cells(cells, jobs=2, registry=reg)
        assert stats.computed == 3
        worker_cells = [
            inst
            for name, _labels, inst in reg.samples()
            if name == "sweep_worker_cells_total"
        ]
        assert sum(inst.value for inst in worker_cells) == 3
        # Sweep wall-time histogram saw one observation per cell.
        wall = [
            inst
            for name, _labels, inst in reg.samples()
            if name == "sweep_cell_wall_seconds"
        ]
        assert sum(inst.count for inst in wall) == 3
        # Metered parallel results equal plain serial results.
        for cell in cells:
            from repro.experiments import runner

            cached = runner.lookup_cached(cell.key())
            assert _metrics_dump(cached) == _metrics_dump(cell.execute())

    def test_metered_campaign_merges_and_stays_identical(self):
        schedule = FaultSchedule.single_failure("P0", 20.0, rebuild=True)
        cells = [
            fault_cell(
                s, "wdev_0", schedule, scale=0.01, n_pairs=2, seed=5
            )
            for s in ("raid10", "rolo-p")
        ]
        progress = SweepProgress(min_interval=0.0)
        results = run_campaign(
            cells, jobs=1, progress=progress, registry=MetricsRegistry()
        )
        assert len(results) == 2
        plain = [cell.execute() for cell in cells]
        for got, want in zip(results, plain):
            assert json.dumps(
                got.to_dict(), sort_keys=True
            ) == json.dumps(want.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Sweep progress rendering
# ----------------------------------------------------------------------
class _FakeStream:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    def isatty(self):
        return True


def test_sweep_progress_renders_rate_and_eta():
    stream = _FakeStream()
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    progress = SweepProgress(
        stream=stream, min_interval=0.0, clock=lambda: next(ticks)
    )
    progress.start(4, done=1)
    for label in ("a", "b", "c"):
        progress(label)
    progress.finish()
    text = "".join(stream.chunks)
    assert "[4/4]" in text
    assert "100.0%" in text
    assert "cells/s" in text
    assert text.endswith("\n")


def test_sweep_progress_throttles(monkeypatch):
    stream = _FakeStream()
    progress = SweepProgress(
        stream=stream, min_interval=100.0, clock=lambda: 1.0
    )
    progress.start(10)
    progress("one")  # first update always draws
    emitted = len(stream.chunks)
    progress("two")
    progress("three")
    # Updates inside the throttle window draw nothing new.
    assert len(stream.chunks) == emitted
    progress.finish()
    assert stream.chunks[-1] == "\n" or stream.chunks[-1].endswith("\n")


# ----------------------------------------------------------------------
# Satellites: sampler export dirs, shm attach stats
# ----------------------------------------------------------------------
def test_sampler_exports_create_parent_dirs(tmp_path, sim):
    from repro.core import build_controller
    from repro.obs.sampler import TimeSeriesSampler
    from tests.conftest import small_config

    controller = build_controller("raid10", sim, small_config())
    sampler = TimeSeriesSampler(sim, controller, interval=1.0)
    sampler.samples.append(sampler.observe())
    jsonl = tmp_path / "a" / "b" / "samples.jsonl"
    csv = tmp_path / "c" / "d" / "samples.csv"
    assert sampler.to_jsonl(str(jsonl)) == 1
    assert sampler.to_csv(str(csv)) == 1
    assert jsonl.exists() and csv.exists()


def test_sampler_rejects_nonpositive_interval(sim):
    from repro.core import build_controller
    from repro.obs.sampler import TimeSeriesSampler
    from tests.conftest import small_config

    controller = build_controller("raid10", sim, small_config())
    with pytest.raises(ValueError):
        TimeSeriesSampler(sim, controller, interval=0.0)


def test_shm_attach_stats_counts_hits_and_misses():
    from repro.traces import shm

    before = shm.attach_stats()
    assert set(before) == {"hits", "misses"}
    trace = workload_cell(
        "raid10", "wdev_0", scale=0.01, n_pairs=2, seed=5
    ).build_trace()
    with shm.SharedTraceStore() as store:
        ref = store.publish(trace)
        shm.attach_cached(ref)
        mid = shm.attach_stats()
        assert mid["misses"] == before["misses"] + 1
        shm.attach_cached(ref)
        after = shm.attach_stats()
        assert after["hits"] == mid["hits"] + 1
    shm.detach_all()
