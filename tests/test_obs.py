"""Tests for the observability layer: tracer, exporters, sampler, profiler.

The acceptance pillar is at the bottom: a traced + sampled + profiled
RoLo run must emit power-state spans for every disk and at least one
rotation and destage event, while its RunMetrics stay byte-identical to
an untraced run of the same cell.
"""

import json

import pytest

from repro.core import ArrayConfig, build_controller
from repro.experiments.runner import (
    Cell,
    run_cell_observed,
    workload_cell,
)
from repro.obs import (
    NULL_TRACER,
    REQUEST_TRACK,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    Tracer,
    normalize,
    read_events,
    summarize_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profiler import CellProfile, ProfileReport
from repro.obs.sampler import TimeSeriesSampler
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Tracer contract
# ----------------------------------------------------------------------
class TestNullTracer:
    def test_falsy_and_normalized_away(self):
        assert not NULL_TRACER
        assert normalize(NULL_TRACER) is None
        assert normalize(None) is None
        assert not NULL_TRACER.enabled

    def test_recording_tracer_is_truthy(self):
        tracer = RecordingTracer()
        assert tracer
        assert normalize(tracer) is tracer

    def test_base_hooks_are_noops(self):
        tracer = Tracer()
        tracer.request_arrived(0, "write", 0, 512, 0.0)
        tracer.request_completed(0, 1.0)
        tracer.power_state("P0", None, "idle", 0.0)
        tracer.instant("rotation", "hand-off", "RoLo-P", 1.0)
        tracer.finish(2.0)


class TestRecordingTracer:
    def test_pairs_request_edges_into_spans(self):
        tracer = RecordingTracer()
        tracer.request_arrived(7, "write", 4096, 8192, 1.0)
        tracer.request_completed(7, 1.5)
        (event,) = tracer.events
        assert event.kind == "span"
        assert event.category == "request"
        assert event.track == REQUEST_TRACK
        assert event.ts == 1.0
        assert event.dur == 0.5
        assert event.attrs["rid"] == 7
        assert event.attrs["nbytes"] == 8192

    def test_unmatched_completion_ignored(self):
        tracer = RecordingTracer()
        tracer.request_completed(99, 1.0)
        assert tracer.events == []

    def test_pairs_power_edges_and_finish_closes(self):
        tracer = RecordingTracer()
        tracer.power_state("P0", None, "idle", 0.0)
        tracer.power_state("P0", "idle", "active", 3.0)
        tracer.finish(10.0)
        spans = [e for e in tracer.events if e.category == "power"]
        assert [(e.name, e.ts, e.dur) for e in spans] == [
            ("idle", 0.0, 3.0),
            ("active", 3.0, 7.0),
        ]

    def test_finish_idempotent(self):
        tracer = RecordingTracer()
        tracer.power_state("P0", None, "idle", 0.0)
        tracer.finish(5.0)
        tracer.finish(9.0)
        assert len(tracer.events) == 1

    def test_counts_by_category(self):
        tracer = RecordingTracer()
        tracer.instant("rotation", "hand-off", "t", 1.0)
        tracer.instant("rotation", "hand-off", "t", 2.0)
        tracer.counter("occupancy:x", "t", 1.0, 0.5)
        assert tracer.counts == {"rotation": 2, "counter": 1}

    def test_sorted_events_stable(self):
        tracer = RecordingTracer()
        tracer.instant("b", "x", "t2", 1.0)
        tracer.instant("a", "x", "t1", 1.0)
        tracer.instant("a", "x", "t1", 0.5)
        ordered = tracer.sorted_events()
        assert [(e.ts, e.track) for e in ordered] == [
            (0.5, "t1"),
            (1.0, "t1"),
            (1.0, "t2"),
        ]


class TestTraceEvent:
    def test_dict_round_trip(self):
        event = TraceEvent(
            ts=1.25,
            kind="span",
            category="disk_op",
            name="write:foreground",
            track="P0",
            dur=0.004,
            attrs={"sector": 42, "nbytes": 512},
        )
        assert TraceEvent.from_dict(event.to_dict()) == event


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_events():
    return [
        TraceEvent(0.0, "span", "power", "idle", "P0", dur=2.0),
        TraceEvent(0.5, "span", "request", "write", REQUEST_TRACK, dur=0.1,
                   attrs={"rid": 0, "offset": 0, "nbytes": 512}),
        TraceEvent(1.0, "instant", "rotation", "hand-off", "RoLo-P",
                   attrs={"slot": 0}),
        TraceEvent(1.5, "counter", "counter", "occupancy:m-log-0", "RoLo-P",
                   attrs={"value": 0.25}),
    ]


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        events = _sample_events()
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(events, path) == len(events)
        # read_events streams lazily; materialize to compare.
        assert list(read_events(path)) == events

    def test_chrome_round_trip(self, tmp_path):
        events = _sample_events()
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(events, path) == len(events)
        loaded = list(read_events(path))
        assert [(e.kind, e.category, e.name, e.track) for e in loaded] == [
            (e.kind, e.category, e.name, e.track) for e in events
        ]
        for got, want in zip(loaded, events):
            assert got.ts == pytest.approx(want.ts)
            assert got.dur == pytest.approx(want.dur)

    def test_chrome_document_shape(self):
        doc = to_chrome_trace(_sample_events())
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable
        records = doc["traceEvents"]
        metadata = [r for r in records if r["ph"] == "M"]
        names = {
            int(r["tid"]): r["args"]["name"]
            for r in metadata
            if r["name"] == "thread_name"
        }
        # requests is always tid 0; other tracks sorted alphabetically.
        assert names[0] == REQUEST_TRACK
        assert set(names.values()) == {REQUEST_TRACK, "P0", "RoLo-P"}
        phases = {r["ph"] for r in records if r["ph"] != "M"}
        assert phases == {"X", "i", "C"}
        # Timestamps are microseconds.
        spans = [r for r in records if r["ph"] == "X"]
        assert spans[0]["ts"] == 0.0
        assert spans[0]["dur"] == pytest.approx(2e6)

    def test_summarize_mentions_key_sections(self):
        text = summarize_events(_sample_events())
        assert "events by category" in text
        assert "power-state residency" in text
        assert "rotation:hand-off" in text


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
class TestSampler:
    def _build(self, interval=1.0):
        sim = Simulator()
        config = ArrayConfig(n_pairs=2).scaled(0.01)
        controller = build_controller("raid10", sim, config)
        return sim, controller, TimeSeriesSampler(interval)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(0.0)

    def test_never_samples_past_last_foreign_event(self):
        sim, controller, sampler = self._build(interval=1.0)
        sim.schedule(3.5, lambda: None)
        sampler.install(sim, controller)
        sim.run()
        # Last foreign event at 3.5: no sample is recorded after it.  The
        # already-armed tick at 4.0 still drains (advancing the clock by
        # at most one interval) but records nothing and does not re-arm.
        assert [s.ts for s in sampler.samples] == [0.0, 1.0, 2.0, 3.0]
        assert sim.now == 4.0
        assert sim.peek() is None

    def test_observe_fields(self):
        sim, controller, sampler = self._build()
        sampler.install(sim, controller)
        sample = sampler.observe()
        assert sample.ts == 0.0
        assert sample.queue_depth == 0
        assert set(sample.power_w) == set(controller.disks_by_role())
        assert sample.log_occupancy_mean == 0.0

    def test_csv_and_jsonl_outputs(self, tmp_path):
        sim, controller, sampler = self._build()
        sim.schedule(2.0, lambda: None)
        sampler.install(sim, controller)
        sim.run()
        csv_path = tmp_path / "samples.csv"
        jsonl_path = tmp_path / "samples.jsonl"
        n = sampler.to_csv(str(csv_path))
        assert sampler.to_jsonl(str(jsonl_path)) == n
        lines = csv_path.read_text().splitlines()
        assert len(lines) == n + 1
        assert lines[0].startswith("ts,queue_depth,in_service,spun_up")
        first = json.loads(jsonl_path.read_text().splitlines()[0])
        assert first["ts"] == 0.0

    def test_summary_text(self):
        sim, controller, sampler = self._build()
        sampler.install(sim, controller)
        assert sampler.summary() == "samples: none collected"
        sampler.samples.append(sampler.observe())
        assert "peak_queue=" in sampler.summary()


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_probe_counts_labels(self, monkeypatch):
        # The cell-run body counts dispatched events by label; events
        # scheduled without one count as "(unlabeled)".
        from repro.experiments import runner

        build = runner.build_controller

        def build_with_unlabeled(scheme, sim, config, tracer=None):
            controller = build(scheme, sim, config, tracer=tracer)
            sim.schedule(0.0, lambda: None)
            sim.schedule(1.0, lambda: None)
            return controller

        monkeypatch.setattr(runner, "build_controller", build_with_unlabeled)
        cell = workload_cell("raid10", "rsrch_2", scale=0.004, n_pairs=2)
        run = run_cell_observed(cell, profile=True)
        profile = run.profile
        assert profile.label_counts["(unlabeled)"] == 2
        assert profile.label_counts["arrival"] == run.metrics.requests
        assert sum(profile.label_counts.values()) == profile.events
        assert profile.sim_time_s > 0.0
        assert profile.wall_s > 0.0
        text = profile.report()
        assert "events=" in text
        assert "(unlabeled)" in text

    def test_unprofiled_run_still_reports_cost(self):
        cell = workload_cell("raid10", "rsrch_2", scale=0.004, n_pairs=2)
        run = run_cell_observed(cell)
        assert run.tracer is None and run.sampler is None
        assert run.profile.events > 0
        assert run.profile.wall_s > 0.0
        assert run.profile.label_counts == {}

    def test_cell_profile_round_trip(self):
        profile = CellProfile(
            label="rolo-p x src2_2", wall_s=1.5, events=3000,
            sim_time_s=60.0,
        )
        clone = CellProfile.from_dict(profile.to_dict())
        assert clone == profile
        profile.label_counts = {"arrival": 7, "(unlabeled)": 1}
        assert CellProfile.from_dict(profile.to_dict()) == profile
        assert clone.events_per_s == pytest.approx(2000.0)

    def test_report_render_sorts_and_totals(self):
        report = ProfileReport()
        report.add(CellProfile(label="b", wall_s=1.0, events=100,
                               sim_time_s=1.0))
        report.add(CellProfile(label="a", source="cached"))
        report.finalize()
        text = report.render()
        assert text.index("b") < text.index("a  ") or "cached" in text
        assert "total:" in text
        assert "1 computed / 1 cached" in text


# ----------------------------------------------------------------------
# Acceptance: traced RoLo run
# ----------------------------------------------------------------------
#: Small log space so the scaled-down run still rotates and destages.
_ACCEPT_CELL = dict(
    scheme="rolo-p",
    workload="rsrch_2",
    scale=0.02,
    n_pairs=2,
    seed=42,
    free_space_bytes=2 * 2**20,
)


@pytest.fixture(scope="module")
def observed_rolo_run():
    cell = workload_cell(**_ACCEPT_CELL)
    return run_cell_observed(
        cell, trace_events=True, sample_interval=2.0, profile=True
    )


class TestObservedRoloRun:
    def test_metrics_byte_identical_to_untraced(self, observed_rolo_run):
        untraced = workload_cell(**_ACCEPT_CELL).execute()
        traced = observed_rolo_run.metrics
        assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
            untraced.to_dict(), sort_keys=True
        )

    def test_power_spans_for_every_disk(self, observed_rolo_run):
        tracer = observed_rolo_run.tracer
        power_tracks = {
            e.track
            for e in tracer.events
            if e.category == "power" and e.kind == "span"
        }
        assert power_tracks == {"P0", "P1", "M0", "M1"}

    def test_rotation_and_destage_events_present(self, observed_rolo_run):
        counts = observed_rolo_run.tracer.counts
        assert counts.get("rotation", 0) >= 1
        assert counts.get("destage", 0) >= 1
        assert observed_rolo_run.metrics.rotations >= 1

    def test_request_spans_match_request_count(self, observed_rolo_run):
        tracer = observed_rolo_run.tracer
        requests = [e for e in tracer.events if e.category == "request"]
        assert len(requests) == observed_rolo_run.metrics.requests
        assert all(e.dur >= 0 for e in requests)

    def test_occupancy_counters_emitted(self, observed_rolo_run):
        counters = [
            e
            for e in observed_rolo_run.tracer.events
            if e.kind == "counter" and e.name.startswith("occupancy:")
        ]
        assert counters
        assert all(0.0 <= e.attrs["value"] <= 1.0 for e in counters)

    def test_sampler_collected_and_power_positive(self, observed_rolo_run):
        samples = observed_rolo_run.sampler.samples
        assert len(samples) >= 2
        assert samples[0].ts == 0.0
        assert all(sum(s.power_w.values()) > 0 for s in samples)

    def test_profile_collected(self, observed_rolo_run):
        profile = observed_rolo_run.profile
        assert profile is not None
        assert profile.events > 0
        assert profile.label_counts.get("arrival", 0) > 0

    def test_chrome_export_valid_and_readable(
        self, observed_rolo_run, tmp_path
    ):
        path = str(tmp_path / "trace.json")
        events = observed_rolo_run.tracer.sorted_events()
        written = write_chrome_trace(events, path)
        assert written == len(events)
        with open(path) as fh:
            doc = json.load(fh)
        assert "traceEvents" in doc
        assert list(read_events(path))
        text = summarize_events(read_events(path))
        assert "rotation" in text

    def test_trace_determinism_across_runs(self, observed_rolo_run):
        # Same observation settings: the sampler's final drained tick sets
        # the end-of-run clock that closes the last power spans, so only
        # identically-configured runs are comparable event-for-event.
        repeat = run_cell_observed(
            workload_cell(**_ACCEPT_CELL),
            trace_events=True,
            sample_interval=2.0,
            profile=True,
        )
        first = [e.to_dict() for e in observed_rolo_run.tracer.sorted_events()]
        second = [e.to_dict() for e in repeat.tracer.sorted_events()]
        assert first == second
