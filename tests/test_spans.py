"""Causal span tracing and critical-path latency attribution.

The acceptance contract (ISSUE 10): for every scheme, every request's
six-phase decomposition (queue / spinup / interference / seek / rotation
/ transfer) sums to its measured response time exactly, span-traced runs
stay byte-identical to plain runs (the PR 9 observability contract), and
the causal edges — RoLo-E spin-up waits, destage interference — name
their culprit.
"""

import json
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_trace, small_config, write_burst
from repro.core import Raid5Config, build_controller, run_trace
from repro.disk.disk import Disk, Scheduler
from repro.disk.mechanical import MechanicalModel
from repro.disk.models import ULTRASTAR_36Z15
from repro.disk.power import PowerState
from repro.experiments.runner import run_cell_observed, workload_cell
from repro.faults import FaultSchedule, run_faulted
from repro.obs import attribution
from repro.obs import (
    PHASES,
    RecordingTracer,
    SpanRecorder,
    attribute_events,
    attribution_summary,
    format_attribution,
    read_events,
    render_explorer_html,
    slowest_requests,
    summarize_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.attribution import RequestAttribution
from repro.obs.tracer import REQUEST_TRACK, EventView, TraceEvent
from repro.sim import Simulator

KB = 1024
MB = 1024 * KB
ALL_SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")
PARITY_SCHEMES = ("raid5", "rolo-5")


def mixed_trace(writes: int = 40, reads: int = 10, gap: float = 0.05):
    spec = [
        (i * gap, "w", (i % 16) * 64 * KB, 64 * KB) for i in range(writes)
    ]
    spec += [
        (writes * gap + i * gap, "r", (i % 20) * 64 * KB, 64 * KB)
        for i in range(reads)
    ]
    return make_trace(spec, name="mixed")


def spanned_run(scheme, trace, config=None):
    sim = Simulator()
    recorder = SpanRecorder()
    controller = build_controller(
        scheme, sim, config or small_config(), tracer=recorder
    )
    metrics = run_trace(controller, trace)
    return metrics, recorder


def assert_exact_sums(attrs):
    """Every decomposition sums to the measured latency, no phase dips
    meaningfully negative."""
    assert attrs
    for a in attrs:
        total = sum(a.phases.values())
        assert abs(total - a.measured) <= 1e-9, (a.rid, total, a.measured)
        for phase in PHASES:
            assert a.phases[phase] >= -1e-9, (a.rid, phase)


# ----------------------------------------------------------------------
# Mechanics: the span layer's phase arithmetic mirrors service_time
# ----------------------------------------------------------------------
class TestSeekRotation:
    def test_matches_service_time(self):
        mech = MechanicalModel(ULTRASTAR_36Z15)
        rate = ULTRASTAR_36Z15.sustained_transfer_rate
        cases = [
            (0, 0, 64 * KB),  # sequential: transfer only
            (0, 1_000_000, 4 * KB),
            (5_000_000, 5_000_000, 128 * KB),
            (70_000_000, 1_000, 64 * KB),
            (1_000, 1_024, 512),  # same cylinder: rotation only
        ]
        for head, start, nbytes in cases:
            seek, rot = mech.seek_rotation(head, start)
            expected = mech.service_time(head, start, nbytes)
            assert seek + rot + nbytes / rate == pytest.approx(
                expected, abs=1e-15
            )

    def test_sequential_is_free(self):
        mech = MechanicalModel(ULTRASTAR_36Z15)
        assert mech.seek_rotation(1234, 1234) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Completion dispatch specialization (the PR 9 contract, extended)
# ----------------------------------------------------------------------
class TestCompletionBinding:
    def _disk(self, tracer):
        return Disk(
            Simulator(),
            ULTRASTAR_36Z15,
            "D0",
            initial_state=PowerState.IDLE,
            scheduler=Scheduler("fcfs"),
            tracer=tracer,
        )

    def test_plain_disk_binds_fast_completion(self):
        disk = self._disk(None)
        assert disk._complete.__func__ is Disk._complete_fast

    def test_recording_tracer_binds_observed_completion(self):
        disk = self._disk(RecordingTracer())
        assert disk._complete.__func__ is Disk._complete_observed

    def test_span_recorder_binds_observed_completion(self):
        # Two completion bodies: spans ride the observed one and do their
        # phase arithmetic in SpanRecorder.disk_op.
        disk = self._disk(SpanRecorder())
        assert disk._complete.__func__ is Disk._complete_observed

    def test_only_two_completion_bodies(self):
        bodies = sorted(n for n in vars(Disk) if n.startswith("_complete_"))
        assert bodies == ["_complete_fast", "_complete_observed"]


class TestPhaseArithmeticCalls:
    """Only span recorders pay for the seek/rotation split, once per op
    that was costed mechanically (log appends are sequential-hinted)."""

    class CountingRecorder(SpanRecorder):
        def __init__(self):
            super().__init__()
            self.ops = 0
            self.unhinted = 0

        def disk_op(self, disk, op, prev_head):
            self.ops += 1
            self.unhinted += not op.sequential_hint
            super().disk_op(disk, op, prev_head)

    def _count_calls(self, monkeypatch, tracer):
        calls = [0]
        original = MechanicalModel.seek_rotation

        def counting(self, head_sector, start_sector):
            calls[0] += 1
            return original(self, head_sector, start_sector)

        monkeypatch.setattr(MechanicalModel, "seek_rotation", counting)
        sim = Simulator()
        controller = build_controller(
            "rolo-r", sim, small_config(), tracer=tracer
        )
        metrics = run_trace(controller, mixed_trace())
        assert metrics.requests > 0
        return calls[0]

    def test_recording_tracer_does_no_phase_math(self, monkeypatch):
        assert self._count_calls(monkeypatch, RecordingTracer()) == 0

    def test_span_recorder_splits_each_unhinted_op_once(self, monkeypatch):
        recorder = self.CountingRecorder()
        calls = self._count_calls(monkeypatch, recorder)
        assert 0 < recorder.unhinted < recorder.ops
        assert calls == recorder.unhinted


# ----------------------------------------------------------------------
# Tentpole: exact attribution across every scheme, clean and faulted
# ----------------------------------------------------------------------
class TestAttributionSums:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_clean_run_sums_exact(self, scheme):
        metrics, recorder = spanned_run(scheme, mixed_trace())
        attrs = attribute_events(recorder.sorted_events())
        assert len(attrs) == metrics.requests
        assert_exact_sums(attrs)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_slowdown_run_sums_exact(self, scheme):
        recorder = SpanRecorder()
        result = run_faulted(
            scheme,
            small_config(),
            write_burst(40, gap=0.05),
            FaultSchedule.parse("slow@0:P0:10x30"),
            tracer=recorder,
        )
        attrs = attribute_events(recorder.sorted_events())
        assert len(attrs) == result.metrics.requests
        assert_exact_sums(attrs)

    @pytest.mark.parametrize("scheme", PARITY_SCHEMES)
    def test_parity_slowdown_run_sums_exact(self, scheme):
        # The faulted run keeps the tracer for parity schemes too.
        recorder = SpanRecorder()
        result = run_faulted(
            scheme,
            Raid5Config(n_disks=5).scaled(0.01),
            write_burst(40, gap=0.05),
            FaultSchedule.parse("slow@0:D0:3x2"),
            tracer=recorder,
        )
        assert recorder.records
        attrs = attribute_events(recorder.sorted_events())
        assert len(attrs) == result.metrics.requests
        assert_exact_sums(attrs)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_failure_run_sums_exact(self, scheme):
        recorder = SpanRecorder()
        result = run_faulted(
            scheme,
            small_config(),
            write_burst(40, gap=0.05),
            FaultSchedule.parse("fail@1.2:M0"),
            tracer=recorder,
        )
        assert result.consistent
        attrs = attribute_events(recorder.sorted_events())
        assert_exact_sums(attrs)

    @pytest.mark.parametrize("scheme", PARITY_SCHEMES)
    def test_parity_schemes_sum_exact(self, scheme):
        sim = Simulator()
        recorder = SpanRecorder()
        controller = build_controller(
            scheme, sim, Raid5Config(n_disks=4).scaled(0.01), tracer=recorder
        )
        metrics = run_trace(controller, mixed_trace())
        attrs = attribute_events(recorder.sorted_events())
        assert len(attrs) == metrics.requests
        assert_exact_sums(attrs)


class TestByteIdentity:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES + PARITY_SCHEMES)
    def test_span_traced_equals_plain(self, scheme):
        trace = mixed_trace()
        if scheme in PARITY_SCHEMES:
            config = Raid5Config(n_disks=4).scaled(0.01)
        else:
            config = small_config()
        sim = Simulator()
        spanned = run_trace(
            build_controller(scheme, sim, config, tracer=SpanRecorder()),
            trace,
        )
        sim = Simulator()
        plain = run_trace(build_controller(scheme, sim, config), trace)
        assert json.dumps(spanned.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Causal edges: spin-up waits and destage interference name a culprit
# ----------------------------------------------------------------------
class TestCausalEdges:
    def test_rolo_e_cold_read_charges_spinup(self):
        # Writes keep the duty pair busy; the cold reads map to the
        # sleeping pair, so their critical path is dominated by the
        # spin-up wait of a STANDBY home disk (§III-D read miss).
        spec = [(i * 0.05, "w", i * 64 * KB, 64 * KB) for i in range(4)]
        spec += [
            (1.0, "r", 8 * MB + 64 * KB, 64 * KB),
            (1.1, "r", 8 * MB + 3 * 64 * KB, 64 * KB),
        ]
        _, recorder = spanned_run("rolo-e", make_trace(spec))
        attrs = attribute_events(recorder.sorted_events())
        assert_exact_sums(attrs)
        cold = [a for a in attrs if a.phases["spinup"] > 0]
        assert cold, "cold reads should pay a spin-up wait"
        for a in cold:
            assert a.culprit == f"spin-up:{a.disk}"
            assert a.phases["spinup"] > 1.0  # seconds, not mechanics noise

    @pytest.mark.parametrize("scheme", ("rolo-p", "rolo-r"))
    def test_destage_interference_names_process(self, scheme):
        # Saturate a tiny log so destaging overlaps foreground reads on
        # the same spindles; interfered requests must carry the destage
        # process's name as their causal culprit.
        spec = [(i * 0.02, "w", (i % 40) * 64 * KB, 64 * KB) for i in range(400)]
        spec += [
            (i * 0.02 + 0.01, "r", ((i + 7) % 40) * 64 * KB + 8 * MB, 64 * KB)
            for i in range(400)
        ]
        _, recorder = spanned_run(
            scheme,
            make_trace(sorted(spec)),
            config=small_config(free_space_bytes=1 * MB),
        )
        attrs = attribute_events(recorder.sorted_events())
        assert_exact_sums(attrs)
        interfered = [a for a in attrs if a.phases["interference"] > 0]
        assert interfered
        assert any("destage" in (a.culprit or "") for a in interfered)


# ----------------------------------------------------------------------
# Summary / report plumbing
# ----------------------------------------------------------------------
class TestSummary:
    def test_quantile_rows_are_real_requests(self):
        _, recorder = spanned_run("rolo-p", mixed_trace())
        attrs = attribute_events(recorder.sorted_events())
        summary = attribution_summary(attrs)
        assert summary["count"] == len(attrs)
        by_rid = {a.rid: a for a in attrs}
        for entry in summary["quantiles"].values():
            pick = by_rid[entry["rid"]]
            assert entry["latency_s"] == pick.measured
            assert sum(entry["phases"].values()) == pytest.approx(
                entry["latency_s"], abs=1e-9
            )
        mean = summary["mean"]
        assert sum(mean["phases"].values()) == pytest.approx(
            mean["latency_s"], abs=1e-9
        )
        text = format_attribution(summary)
        assert "p95" in text and "queue" in text

    def test_slowest_requests_ordering(self):
        _, recorder = spanned_run("rolo-p", mixed_trace())
        attrs = attribute_events(recorder.sorted_events())
        slow = slowest_requests(attrs, 5)
        assert len(slow) == 5
        assert all(
            slow[i].measured >= slow[i + 1].measured
            for i in range(len(slow) - 1)
        )
        assert slow[0].measured == max(a.measured for a in attrs)

    def test_report_gains_attribution_columns(self):
        from repro.experiments.runreport import (
            build_run_report,
            render_html,
            render_markdown,
            report_cells,
        )

        cells = report_cells(
            schemes=["rolo-p"], workloads=["rsrch_2"], scale=0.004, n_pairs=2
        )
        report = build_run_report(cells, attribution=True)
        assert report["cells"][0]["attribution"]["count"] > 0
        markdown = render_markdown(report)
        assert "Critical-path attribution" in markdown
        assert "spin-up" in markdown
        html_text = render_html(report)
        assert "Critical-path attribution" in html_text


# ----------------------------------------------------------------------
# Satellites: flow events, lazy reader, phase totals, explorer
# ----------------------------------------------------------------------
class TestExportSatellites:
    @pytest.fixture(scope="class")
    def spanned_events(self):
        _, recorder = spanned_run("rolo-p", mixed_trace())
        return recorder.sorted_events()

    def test_chrome_flow_events_link_request_spans(self, spanned_events):
        document = to_chrome_trace(spanned_events)
        flows = [
            r
            for r in document["traceEvents"]
            if r.get("cat") == "request_flow"
        ]
        assert flows
        by_id = {}
        for record in flows:
            by_id.setdefault(record["id"], []).append(record["ph"])
        for phases in by_id.values():
            # every chain starts with "s" and terminates with "f"
            assert phases[0] == "s"
            assert phases[-1] == "f"
            assert all(p == "t" for p in phases[1:-1])

    def test_chrome_round_trip_skips_flow_phases(
        self, spanned_events, tmp_path
    ):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(spanned_events, path)
        loaded = list(read_events(path))
        assert len(loaded) == len(spanned_events)

    def test_read_events_streams_jsonl_lazily(self, spanned_events, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(spanned_events, path)
        stream = read_events(path)
        assert isinstance(stream, types.GeneratorType)
        assert list(stream) == list(spanned_events)

    def test_summarize_reports_phase_totals(self, spanned_events):
        text = summarize_events(iter(spanned_events))
        assert "span phases over" in text
        assert "seek=" in text and "queued=" in text

    def test_explorer_html_renders(self, spanned_events):
        html_text = render_explorer_html(spanned_events, top=3)
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<script" not in html_text  # self-contained, no JS
        assert "<svg" in html_text
        for disk in ("P0", "M0", "P1", "M1"):
            assert disk in html_text
        for phase in PHASES:
            assert phase in html_text

    def test_explorer_handles_plain_trace(self):
        # A non-spanned RecordingTracer stream still renders (no span
        # trees, but the power lanes and occupancy survive).
        sim = Simulator()
        tracer = RecordingTracer()
        controller = build_controller(
            "rolo-p", sim, small_config(), tracer=tracer
        )
        run_trace(controller, mixed_trace())
        html_text = render_explorer_html(tracer.sorted_events(), top=2)
        assert "<svg" in html_text


# ----------------------------------------------------------------------
# Records: flat tuples, read as events only on demand
# ----------------------------------------------------------------------
def assert_view_matches_events(view):
    """Attribution straight off the recorder's records equals attribution
    over the TraceEvents the view builds, and the view round-trips."""
    events = list(view)
    assert len(events) == len(view) > 0
    assert list(view) == events  # a view iterates again, identically
    assert list(EventView.of(events)) == events
    from_records = [a.to_dict() for a in attribute_events(view)]
    from_events = [a.to_dict() for a in attribute_events(events)]
    assert from_records == from_events
    assert from_records


class TestRecordView:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_fig10_view_attribution_equals_event_attribution(self, scheme):
        cell = workload_cell(scheme, "src2_2", scale=0.004, n_pairs=4)
        run = run_cell_observed(cell, spans=True)
        assert_view_matches_events(run.tracer.sorted_events())

    def test_faulted_view_attribution_equals_event_attribution(self):
        spec = [(i * 0.02, "w", (i % 40) * 64 * KB, 64 * KB) for i in range(300)]
        spec += [
            (i * 0.02 + 0.01, "r", ((i + 7) % 40) * 64 * KB + 8 * MB, 64 * KB)
            for i in range(300)
        ]
        recorder = SpanRecorder()
        result = run_faulted(
            "rolo-r",
            small_config(free_space_bytes=1 * MB),
            make_trace(sorted(spec)),
            FaultSchedule.parse("slow@0:P0:3x2,fail@2:M1"),
            tracer=recorder,
        )
        assert result.consistent
        assert recorder.counts.get("fault", 0) > 0
        assert_view_matches_events(recorder.sorted_events())

    def test_records_are_flat_tuples_of_atoms(self):
        _, recorder = spanned_run("rolo-e", mixed_trace())
        atoms = (int, float, str, type(None))
        assert recorder.records
        for record in recorder.records:
            assert type(record) is tuple
            assert all(isinstance(value, atoms) for value in record), record

    def test_events_and_counts_read_the_records(self):
        _, recorder = spanned_run("rolo-p", mixed_trace())
        events = recorder.events
        assert len(events) == len(recorder.records)
        counts = {}
        for event in events:
            counts[event.category] = counts.get(event.category, 0) + 1
        assert recorder.counts == counts
        assert list(recorder.counts) == list(counts)  # first-seen order


# ----------------------------------------------------------------------
# Interval index: bit-identical to the brute-force scan, linear work
# ----------------------------------------------------------------------
def brute_force_attribute(events):
    """Reference attribution: every request's wait window scans every
    spin-up and background span on its disk, in stream order."""
    requests, ops_by_rid, spinups, background = [], {}, {}, {}
    for event in events:
        if event.kind != "span":
            continue
        if event.category == "request":
            requests.append(event)
        elif event.category == "disk_op":
            rid = event.attrs.get("rid")
            if rid is not None:
                ops_by_rid.setdefault(rid, []).append(event)
            if event.name.endswith(":background"):
                background.setdefault(event.track, []).append(
                    (
                        event.ts,
                        event.ts + event.dur,
                        str(event.attrs.get("proc", "background")),
                    )
                )
        elif event.category == "power" and event.name == "spinning_up":
            spinups.setdefault(event.track, []).append(
                (event.ts, event.ts + event.dur)
            )
    out = []
    for req in requests:
        rid = req.attrs.get("rid")
        phases = {phase: 0.0 for phase in PHASES}
        disk = culprit = None
        ops = ops_by_rid.get(rid)
        if ops:
            critical = max(ops, key=lambda e: (e.ts + e.dur, e.ts))
            disk = critical.track
            attrs = critical.attrs
            submit = critical.ts - float(attrs.get("queued_s", 0.0))
            start = critical.ts
            spinup = 0.0
            for b_lo, b_hi in spinups.get(disk, []):
                o = min(start, b_hi) - max(submit, b_lo)
                if o > 0:
                    spinup += o
            interference = worst_overlap = 0.0
            worst_proc = None
            for b_lo, b_hi, proc in background.get(disk, []):
                o = min(start, b_hi) - max(submit, b_lo)
                if o > 0:
                    interference += o
                    if o > worst_overlap:
                        worst_overlap = o
                        worst_proc = proc
            phases["seek"] = float(attrs.get("seek_s", 0.0))
            phases["rotation"] = float(attrs.get("rot_s", 0.0))
            phases["transfer"] = float(attrs.get("transfer_s", critical.dur))
            phases["spinup"] = spinup
            phases["interference"] = interference
            if spinup > 0 and spinup >= interference:
                culprit = f"spin-up:{disk}"
            elif worst_proc is not None:
                culprit = worst_proc
        phases["queue"] = req.dur - sum(
            phases[p] for p in PHASES if p != "queue"
        )
        out.append(
            RequestAttribution(
                rid=rid if rid is not None else -1,
                kind=req.name,
                arrival=req.ts,
                measured=req.dur,
                phases=phases,
                disk=disk,
                culprit=culprit,
            )
        )
    out.sort(key=lambda a: a.rid)
    return out


def assert_matches_brute_force(events):
    """The indexed attribution equals the brute-force scan bit for bit;
    returns the attributions for further checks."""
    attrs = attribute_events(events)
    expected = brute_force_attribute(events)
    assert [a.to_dict() for a in attrs] == [a.to_dict() for a in expected]
    return attrs


def synthetic_stream(background, spinups, requests, disk="D0"):
    """A ts-ordered span stream on one disk.

    ``background``/``spinups`` are ``(start, dur)`` spans; ``requests``
    are ``(start, queued, service)`` critical ops, one per request."""
    events = [
        TraceEvent(
            ts=start, kind="span", category="disk_op",
            name="write:background", track=disk, dur=dur,
            attrs={"proc": f"destage-{i}"},
        )
        for i, (start, dur) in enumerate(background)
    ]
    events += [
        TraceEvent(
            ts=start, kind="span", category="power", name="spinning_up",
            track=disk, dur=dur,
        )
        for start, dur in spinups
    ]
    for rid, (start, queued, service) in enumerate(requests):
        events.append(
            TraceEvent(
                ts=start - queued, kind="span", category="request",
                name="read", track=REQUEST_TRACK, dur=queued + service,
                attrs={"rid": rid},
            )
        )
        events.append(
            TraceEvent(
                ts=start, kind="span", category="disk_op",
                name="read:foreground", track=disk, dur=service,
                attrs={
                    "rid": rid, "queued_s": queued, "seek_s": 0.0,
                    "rot_s": 0.0, "transfer_s": service,
                },
            )
        )
    return EventView.of(events)


_times = st.floats(0.0, 50.0, allow_nan=False)
_durations = st.one_of(st.just(0.0), st.floats(0.0, 30.0, allow_nan=False))


class TestAttributionIndex:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_fig10_cell_matches_brute_force(self, scheme):
        cell = workload_cell(scheme, "src2_2", scale=0.004, n_pairs=4)
        events = run_cell_observed(cell, spans=True).tracer.sorted_events()
        attrs = assert_matches_brute_force(events)
        assert_exact_sums(attrs)

    def test_faulted_run_matches_brute_force(self):
        spec = [(i * 0.02, "w", (i % 40) * 64 * KB, 64 * KB) for i in range(300)]
        spec += [
            (i * 0.02 + 0.01, "r", ((i + 7) % 40) * 64 * KB + 8 * MB, 64 * KB)
            for i in range(300)
        ]
        recorder = SpanRecorder()
        result = run_faulted(
            "rolo-r",
            small_config(free_space_bytes=1 * MB),
            make_trace(sorted(spec)),
            FaultSchedule.parse("slow@0:P0:3x2,fail@2:M1"),
            tracer=recorder,
        )
        assert result.consistent
        attrs = assert_matches_brute_force(recorder.sorted_events())
        assert any(a.phases["interference"] > 0 for a in attrs)
        assert_exact_sums(attrs)

    @settings(max_examples=200, deadline=None)
    @given(
        background=st.lists(st.tuples(_times, _durations), max_size=12),
        spinups=st.lists(st.tuples(_times, _durations), max_size=4),
        requests=st.lists(
            st.tuples(_times, _durations, _durations), min_size=1, max_size=8
        ),
    )
    def test_overlapping_and_nested_spans_match_brute_force(
        self, background, spinups, requests
    ):
        # Spans here overlap, nest, have zero length, and their ends are
        # not monotone in start order: the window must still cover every
        # span that can overlap a request's wait.
        assert_matches_brute_force(
            synthetic_stream(background, spinups, requests)
        )

    def test_work_grows_linearly(self, monkeypatch):
        # Count overlap evaluations through a counting ``min`` in the
        # module namespace: N requests against N disjoint background spans
        # on one disk must cost O(N), not O(N^2), evaluations.
        calls = [0]

        def counting_min(*args):
            calls[0] += 1
            return min(*args)

        monkeypatch.setattr(attribution, "min", counting_min, raising=False)

        def work(n):
            calls[0] = 0
            stream = synthetic_stream(
                background=[(2.0 * k, 1.0) for k in range(n)],
                spinups=[],
                requests=[(2.0 * k + 1.5, 1.0, 0.1) for k in range(n)],
            )
            attrs = attribute_events(stream)
            assert all(a.phases["interference"] == 0.5 for a in attrs)
            return calls[0]

        small, large = work(400), work(800)
        assert small > 0
        assert large <= 2.2 * small, (small, large)
