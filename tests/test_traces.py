"""Unit tests for the trace substrate."""

import math
import re

import pytest

from tests.conftest import make_trace, small_config
from repro.core import build_controller, run_trace
from repro.raid.request import RequestKind
from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.traces import (
    Burstiness,
    PAPER_WORKLOADS,
    SyntheticTraceConfig,
    TraceRecord,
    build_workload_trace,
    characterize,
    compiled_from_events,
    generate_compiled,
)
from repro.traces.msr import MsrFormatError, load_msr_trace, save_msr_trace
from repro.traces.synthetic import ALIGNMENT

KB = 1024
MB = 1024 * KB


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, RequestKind.READ, 0, 10)
        with pytest.raises(ValueError):
            TraceRecord(0, RequestKind.READ, -1, 10)
        with pytest.raises(ValueError):
            TraceRecord(0, RequestKind.READ, 0, 0)

    def test_equality_and_hash(self):
        a = TraceRecord(1.0, RequestKind.WRITE, 0, 10)
        b = TraceRecord(1.0, RequestKind.WRITE, 0, 10)
        c = TraceRecord(2.0, RequestKind.WRITE, 0, 10)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_is_write(self):
        assert TraceRecord(0, RequestKind.WRITE, 0, 1).is_write
        assert not TraceRecord(0, RequestKind.READ, 0, 1).is_write


class TestTrace:
    def test_ordering_enforced(self):
        """Replay refuses an arrival earlier than the one before it."""
        trace = make_trace([(2.0, "r", 0, 512), (1.0, "r", 0, 512)])
        controller = build_controller("raid10", Simulator(), small_config())
        with pytest.raises(SimulationError, match="cannot schedule at 1.0"):
            run_trace(controller, trace)

    def test_duration_and_footprint(self):
        trace = make_trace([(1.0, "w", 100, 50), (3.0, "r", 500, 100)])
        assert trace.duration == 3.0
        assert trace.footprint_bytes == 600
        assert len(trace) == 2
        assert trace[0].offset == 100

    def test_explicit_footprint_wins(self):
        trace = compiled_from_events(
            [(0.0, False, 0, 1)], footprint_bytes=12345
        )
        assert trace.footprint_bytes == 12345

    def test_empty_trace(self):
        trace = compiled_from_events([])
        assert trace.duration == 0.0
        assert trace.footprint_bytes == 0


class TestSyntheticGenerator:
    def base_config(self, **overrides):
        defaults = dict(
            duration_s=400.0,
            iops=50.0,
            write_ratio=0.8,
            avg_request_bytes=16 * KB,
            footprint_bytes=64 * MB,
            seed=1,
        )
        defaults.update(overrides)
        return SyntheticTraceConfig(**defaults)

    def test_deterministic_given_seed(self):
        a = generate_compiled(self.base_config())
        b = generate_compiled(self.base_config())
        assert len(a) == len(b)
        assert all(x == y for x, y in zip(a, b))

    def test_different_seed_differs(self):
        a = generate_compiled(self.base_config())
        b = generate_compiled(self.base_config(seed=2))
        assert any(x != y for x, y in zip(a, b))

    def test_iops_close_to_target(self):
        trace = generate_compiled(self.base_config())
        measured = len(trace) / 400.0
        assert measured == pytest.approx(50.0, rel=0.1)

    def test_write_ratio_close_to_target(self):
        trace = generate_compiled(self.base_config())
        writes = sum(1 for r in trace if r.is_write)
        assert writes / len(trace) == pytest.approx(0.8, abs=0.05)

    def test_offsets_aligned_and_in_footprint(self):
        trace = generate_compiled(self.base_config())
        for record in trace:
            assert record.offset % ALIGNMENT == 0
            assert record.offset + record.nbytes <= 64 * MB

    def test_fixed_size_when_sigma_zero(self):
        trace = generate_compiled(self.base_config(size_sigma=0.0))
        assert all(r.nbytes == 16 * KB for r in trace)

    def test_lognormal_mean_near_target(self):
        trace = generate_compiled(
            self.base_config(size_sigma=0.6, duration_s=2000.0)
        )
        mean = sum(r.nbytes for r in trace) / len(trace)
        assert mean == pytest.approx(16 * KB, rel=0.15)

    def test_sequential_fraction_produces_runs(self):
        seq = generate_compiled(
            self.base_config(write_sequential_fraction=0.9, write_ratio=1.0)
        )
        rnd = generate_compiled(
            self.base_config(write_sequential_fraction=0.0, write_ratio=1.0)
        )

        def seq_count(trace):
            count = 0
            prev_end = None
            for r in trace:
                if prev_end is not None and r.offset == prev_end:
                    count += 1
                prev_end = r.offset + r.nbytes
            return count

        assert seq_count(seq) > 10 * max(1, seq_count(rnd))

    def test_bursty_arrivals_have_higher_variance(self):
        uniform = generate_compiled(
            self.base_config(burstiness=Burstiness.NONE, duration_s=1000)
        )
        bursty = generate_compiled(
            self.base_config(
                burstiness=Burstiness.VERY_HIGH,
                burst_cycle_s=50.0,
                duration_s=1000,
            )
        )

        def per_second_variance(trace):
            counts = {}
            for r in trace:
                counts[int(r.timestamp)] = counts.get(int(r.timestamp), 0) + 1
            values = [counts.get(s, 0) for s in range(1000)]
            mean = sum(values) / len(values)
            return sum((v - mean) ** 2 for v in values) / len(values)

        assert per_second_variance(bursty) > 3 * per_second_variance(uniform)

    def test_burstiness_preserves_mean_rate(self):
        bursty = generate_compiled(
            self.base_config(
                burstiness=Burstiness.VERY_HIGH,
                burst_cycle_s=20.0,
                duration_s=2000,
            )
        )
        assert len(bursty) / 2000 == pytest.approx(50.0, rel=0.15)

    def test_read_sessions_cluster_reads(self):
        trace = generate_compiled(
            self.base_config(
                write_ratio=0.9,
                read_session_fraction=0.2,
                read_session_cycle_s=100.0,
                duration_s=1000,
            )
        )
        in_session = [
            r for r in trace if math.fmod(r.timestamp, 100.0) < 20.0
        ]
        out_session = [
            r for r in trace if math.fmod(r.timestamp, 100.0) >= 20.0
        ]
        assert all(r.is_write for r in out_session)
        reads = sum(1 for r in in_session if not r.is_write)
        assert reads > 0
        # Overall read ratio is preserved.
        total_reads = sum(1 for r in trace if not r.is_write)
        assert total_reads / len(trace) == pytest.approx(0.1, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.base_config(duration_s=0)
        with pytest.raises(ValueError):
            self.base_config(write_ratio=1.5)
        with pytest.raises(ValueError):
            self.base_config(read_locality=-0.1)
        with pytest.raises(ValueError):
            self.base_config(avg_request_bytes=100)
        with pytest.raises(ValueError):
            self.base_config(footprint_bytes=KB)
        with pytest.raises(ValueError):
            self.base_config(read_session_fraction=0.0)
        with pytest.raises(ValueError):
            # Sessions narrower than the read ratio can't carry the reads.
            self.base_config(write_ratio=0.2, read_session_fraction=0.5)


class TestWorkloadPresets:
    def test_all_seven_traces_present(self):
        assert set(PAPER_WORKLOADS) == {
            "src2_2",
            "proj_0",
            "mds_0",
            "wdev_0",
            "web_1",
            "rsrch_2",
            "hm_1",
        }

    @pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS))
    def test_replica_matches_published_characteristics(self, name):
        """Table III / VI calibration check at small scale."""
        preset = PAPER_WORKLOADS[name]
        scale = 0.05 if preset.iops > 10 else 0.2
        trace = build_workload_trace(name, scale=scale)
        stats = characterize(
            trace, duration_s=preset.full_duration_s * scale
        )
        assert stats.write_ratio == pytest.approx(
            preset.write_ratio, abs=0.05
        )
        assert stats.iops == pytest.approx(preset.iops, rel=0.15)
        assert stats.avg_request_bytes == pytest.approx(
            preset.avg_request_bytes, rel=0.2
        )
        expected_volume = preset.write_capacity_bytes * scale
        assert stats.write_capacity_bytes == pytest.approx(
            expected_volume, rel=0.25
        )

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            build_workload_trace("nope")

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            PAPER_WORKLOADS["src2_2"].to_config(scale=0)

    def test_full_duration_consistent(self):
        preset = PAPER_WORKLOADS["src2_2"]
        rate = preset.iops * preset.write_ratio * preset.avg_request_bytes
        assert preset.full_duration_s == pytest.approx(
            preset.write_capacity_bytes / rate
        )


class TestMsrFormat:
    def test_round_trip(self, tmp_path):
        trace = build_workload_trace("wdev_0", scale=0.01)
        path = tmp_path / "trace.csv"
        save_msr_trace(trace, path)
        loaded = load_msr_trace(path)
        assert len(loaded) == len(trace)
        base = trace[0].timestamp  # loader normalizes to first arrival
        for a, b in zip(trace, loaded):
            assert a.kind == b.kind
            assert a.offset == b.offset
            assert a.nbytes == b.nbytes
            assert a.timestamp - base == pytest.approx(
                b.timestamp, abs=1e-6
            )

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("128166372003061629,host,0,Erase,0,4096,100\n")
        with pytest.raises(MsrFormatError):
            load_msr_trace(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,host,0\n")
        with pytest.raises(MsrFormatError):
            load_msr_trace(path)

    def test_disk_filter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "0,h,0,Write,0,4096,0\n"
            "10000000,h,1,Write,4096,4096,0\n"
            "20000000,h,0,Read,8192,4096,0\n"
        )
        loaded = load_msr_trace(path, disk_number=0)
        assert len(loaded) == 2
        assert loaded[1].kind is RequestKind.READ

    def test_max_records(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "\n".join(f"{i * 10_000_000},h,0,Write,{i * 4096},4096,0" for i in range(10))
        )
        loaded = load_msr_trace(path, max_records=3)
        assert len(loaded) == 3
        assert len(load_msr_trace(path, max_records=0)) == 0

    def test_comments_and_zero_size_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# header\n"
            "0,h,0,Write,0,4096,0\n"
            "10000000,h,0,Write,0,0,0\n"
        )
        loaded = load_msr_trace(path)
        assert len(loaded) == 1

    def test_backwards_timestamp_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "20000000,h,0,Write,0,4096,0\n"
            "30000000,h,0,Write,0,4096,0\n"
            "# comment\n"
            "25000000,h,0,Write,0,4096,0\n"
        )
        with pytest.raises(
            MsrFormatError, match=f"^{re.escape(str(path))}:4: timestamps not monotone$"
        ):
            load_msr_trace(path)

    def test_negative_offset_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "0,h,0,Write,0,4096,0\n"
            "10000000,h,0,Read,-512,4096,0\n"
        )
        with pytest.raises(
            MsrFormatError, match=f"^{re.escape(str(path))}:2: negative offset -512$"
        ):
            load_msr_trace(path)

    def test_timestamps_normalized_to_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "128166372003061629,h,0,Write,0,4096,0\n"
            "128166372013061629,h,0,Write,0,4096,0\n"
        )
        loaded = load_msr_trace(path)
        assert loaded[0].timestamp == 0.0
        assert loaded[1].timestamp == pytest.approx(1.0)


class TestCharacterize:
    def test_counts(self):
        trace = make_trace(
            [
                (0.0, "w", 0, 10 * KB),
                (5.0, "r", 0, 30 * KB),
                (10.0, "w", 50 * KB, 20 * KB),
            ]
        )
        stats = characterize(trace)
        assert stats.records == 3
        assert stats.write_ratio == pytest.approx(2 / 3)
        assert stats.iops == pytest.approx(0.3)
        assert stats.write_capacity_bytes == 30 * KB
        assert stats.read_capacity_bytes == 30 * KB
        assert stats.avg_request_bytes == pytest.approx(20 * KB)
        assert stats.footprint_bytes == 70 * KB

    def test_row_renders(self):
        trace = make_trace([(0.0, "w", 0, KB)])
        assert "write" in characterize(trace, duration_s=1.0).row()
