"""Tests for the metrics registry (``repro.obs.metrics``).

Four pillars from the PR's acceptance criteria:

1. Registry arithmetic — counters, gauge aggregation modes, histogram
   bucket/sum/min/max bookkeeping, and name/label validation.
2. Quantile fidelity — a bucket-interpolated quantile lands within one
   bucket's growth of the nearest-rank sample, and merging histograms
   answers exactly as observing the union of their samples.
3. Merge associativity — worker registries merge into the same snapshot
   regardless of arrival order, which is what lets ``run_grouped``
   fold registries in completion order.
4. The observe-only discipline — metered runs (plain, parallel, and
   fault-injected) produce RunMetrics byte-identical to unmetered runs
   across all five schemes.
"""

import bisect
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import (
    SweepProgress,
    execute_cells,
)
from repro.experiments.runner import run_cell_observed, workload_cell
from repro.faults.campaign import fault_cell, run_campaign
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_POWER_BUCKETS,
    Gauge,
    MetricCounter,
    MetricHistogram,
    MetricsRegistry,
    TRACKED_QUANTILES,
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
        bounds = log_buckets(1e-4, 2 ** (1 / 8), 153)
        assert len(bounds) == 153
        assert all(b < a for b, a in zip(bounds, bounds[1:]))
        assert bounds == DEFAULT_LATENCY_BUCKETS

    @pytest.mark.parametrize(
        "bounds,lower,upper",
        [
            # The earlier x1.6 latency and x1.5 power grids' edges.
            (DEFAULT_LATENCY_BUCKETS, 1e-4, 1e-4 * 1.6**28),
            (DEFAULT_POWER_BUCKETS, 0.5, 0.5 * 1.5**19),
        ],
        ids=("latency", "power"),
    )
    def test_default_grids_keep_lower_edge_and_range(
        self, bounds, lower, upper
    ):
        assert bounds[0] == lower
        # The shortest 2^(1/8) grid that still covers the old range.
        assert bounds[-2] < upper <= bounds[-1]
        for below, above in zip(bounds, bounds[1:]):
            assert above / below == pytest.approx(2 ** (1 / 8), rel=1e-12)

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


def _histogram(samples):
    hist = MetricHistogram(bounds=DEFAULT_LATENCY_BUCKETS)
    for value in samples:
        hist.observe(value)
    return hist


#: Latencies: log-uniform across the grid and past both ends, the bucket
#: bounds themselves, and zero.
_latencies = st.one_of(
    st.floats(-5.0, 2.5).map(lambda exponent: 10.0**exponent),
    st.sampled_from(DEFAULT_LATENCY_BUCKETS),
    st.just(0.0),
)
_quantiles = st.lists(
    st.floats(0.0, 1.0, exclude_min=True), max_size=4
).map(lambda drawn: list(TRACKED_QUANTILES) + drawn)


class TestQuantiles:
    @settings(max_examples=300, deadline=None)
    @given(samples=st.lists(_latencies, min_size=1, max_size=300),
           qs=_quantiles)
    def test_in_grid_quantile_within_one_bucket_growth(self, samples, qs):
        hist = _histogram(samples)
        ordered = sorted(samples)
        bounds = DEFAULT_LATENCY_BUCKETS
        for q in qs:
            assert ordered[0] <= hist.quantile(q) <= ordered[-1]
            exact = ordered[math.ceil(q * len(ordered)) - 1]
            if not bounds[0] < exact <= bounds[-1]:
                continue  # below the first or above the last bound
            error = abs(hist.quantile(q) - exact)
            assert error <= (2 ** (1 / 8) - 1) * exact * (1 + 1e-12), (
                q, exact, hist.quantile(q)
            )

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(_latencies, max_size=200),
           b=st.lists(_latencies, max_size=200),
           qs=_quantiles)
    def test_merge_equals_histogram_of_union(self, a, b, qs):
        merged = _histogram(a)
        merged.merge(_histogram(b))
        union = _histogram(a + b)
        assert merged.counts == union.counts
        assert merged.count == union.count
        assert merged.min == union.min
        assert merged.max == union.max
        assert merged.sum == pytest.approx(union.sum, rel=1e-12, abs=1e-300)
        for q in qs:
            assert merged.quantile(q) == union.quantile(q)

    def test_overflow_bucket_answers_with_max(self):
        hist = _histogram([1e-3, 2e-3, 500.0])
        assert hist.quantile(1.0) == 500.0
        assert hist.quantile(0.5) <= 2e-3


class ReferenceHistogram:
    """Brute-force histogram: keeps every sample sorted and answers each
    quantile from the nearest-rank sample directly, without the running
    cumulative scan of :meth:`MetricHistogram.quantile`."""

    def __init__(self, bounds):
        self.bounds = list(bounds)
        self.samples = []
        self.sum = 0.0

    def observe(self, value):
        bisect.insort(self.samples, value)
        self.sum += value

    def to_dict(self):
        counts = [0] * (len(self.bounds) + 1)
        for value in self.samples:
            counts[_reference_bucket(self.bounds, value)] += 1
        n = len(self.samples)
        return {
            "bounds": list(self.bounds),
            "counts": counts,
            "count": n,
            "sum": self.sum,
            "min": self.samples[0] if n else None,
            "max": self.samples[-1] if n else None,
        }

    def quantile(self, q):
        n = len(self.samples)
        if not n:
            return 0.0
        rank = math.ceil(q * n)
        i = _reference_bucket(self.bounds, self.samples[rank - 1])
        if i == len(self.bounds):
            return self.samples[-1]
        buckets = [_reference_bucket(self.bounds, v) for v in self.samples]
        below = sum(1 for b in buckets if b < i)
        inside = sum(1 for b in buckets if b == i)
        lower = self.bounds[i - 1] if i else 0.0
        upper = self.bounds[i]
        value = lower + (q * n - below) / inside * (upper - lower)
        return min(max(value, self.samples[0]), self.samples[-1])


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
    """Histogram state and bucket quantiles against
    :class:`ReferenceHistogram`, on the streams (heavy tail, ties,
    constant, monotone, negative, fewer than six samples) that checked the
    P² sketches before bucket quantiles replaced them."""

    @pytest.mark.parametrize("q", TRACKED_QUANTILES)
    @pytest.mark.parametrize(
        "stream", list(_p2_streams()), ids=lambda s: s[0]
    )
    def test_states_match_reference(self, q, stream):
        _, values = stream
        bounds = DEFAULT_LATENCY_BUCKETS
        hist, oracle = MetricHistogram(bounds), ReferenceHistogram(bounds)
        for step, value in enumerate(values):
            hist.observe(value)
            oracle.observe(value)
            if step % 50 and step != len(values) - 1:
                continue
            assert hist.to_dict() == oracle.to_dict()
            assert hist.quantile(q) == oracle.quantile(q)
            exact = oracle.samples[math.ceil(q * (step + 1)) - 1]
            if bounds[0] < exact <= bounds[-1]:
                error = abs(hist.quantile(q) - exact)
                assert error <= (2 ** (1 / 8) - 1) * exact * (1 + 1e-12)
        assert hist.quantile(q) == oracle.quantile(q)

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


def test_merged_histograms_keep_exact_moments():
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

    def test_snapshot_with_p2_sketches_still_loads(self, tmp_path):
        # Snapshots written while histograms carried P² sketches have a
        # ``sketches`` entry per histogram; loading ignores it.
        reg = _make_registry(3)
        data = reg.to_dict()
        for child in data["families"]["latency_seconds"]["children"]:
            child["histogram"]["sketches"] = [
                {"q": q, "count": 200, "heights": [0.1] * 5,
                 "positions": [1.0, 2.0, 3.0, 4.0, 5.0],
                 "desired": [1.0, 2.0, 3.0, 4.0, 5.0], "buf": []}
                for q in TRACKED_QUANTILES
            ]
        path = tmp_path / "old.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "meta", "schema": 1}) + "\n")
            for name, family in data["families"].items():
                record = {"record": "family", "name": name, **family}
                fh.write(json.dumps(record) + "\n")
        clone = read_snapshot(str(path))
        assert clone.to_dict() == reg.to_dict()

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

    def test_metered_span_traced_run_matches_plain(self):
        cell = workload_cell(
            "rolo-e", "wdev_0", scale=0.02, n_pairs=4, seed=3
        )
        registry = MetricsRegistry()
        observed = run_cell_observed(cell, spans=True, registry=registry)
        assert _metrics_dump(observed.metrics) == _metrics_dump(
            cell.execute()
        )
        assert len(observed.tracer.sorted_events()) > 0
        assert registry.get("sim_events_total", scheme="RoLo-E").value > 0

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
    sampler = TimeSeriesSampler(interval=1.0)
    sampler.install(sim, controller)
    sampler.samples.append(sampler.observe())
    jsonl = tmp_path / "a" / "b" / "samples.jsonl"
    csv = tmp_path / "c" / "d" / "samples.csv"
    assert sampler.to_jsonl(str(jsonl)) == 1
    assert sampler.to_csv(str(csv)) == 1
    assert jsonl.exists() and csv.exists()


def test_sampler_rejects_nonpositive_interval():
    from repro.obs.sampler import TimeSeriesSampler

    with pytest.raises(ValueError):
        TimeSeriesSampler(interval=0.0)


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
