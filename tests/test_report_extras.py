"""Tests for report rendering extras and the hotspot generator knob."""

import pytest

from repro.experiments.report import Series
from repro.traces.synthetic import SyntheticTraceConfig, generate_compiled

KB = 1024
MB = 1024 * KB


class TestRenderBars:
    def test_empty_series(self):
        s = Series("s", "x", "y")
        assert "(no data)" in s.render_bars()

    def test_bars_scale_to_peak(self):
        s = Series("s", "x", "y")
        s.add("a", 10.0)
        s.add("b", 5.0)
        text = s.render_bars(width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_negative_values_use_magnitude(self):
        s = Series("s", "x", "y")
        s.add("a", -4.0)
        s.add("b", 2.0)
        text = s.render_bars(width=8)
        lines = text.splitlines()
        assert lines[1].count("#") == 8
        assert lines[2].count("#") == 4

    def test_width_validation(self):
        s = Series("s", "x", "y")
        s.add("a", 1.0)
        with pytest.raises(ValueError):
            s.render_bars(width=0)

    def test_labels_aligned(self):
        s = Series("s", "x", "y")
        s.add("long-label", 1.0)
        s.add("a", 1.0)
        lines = s.render_bars().splitlines()
        assert lines[1].index("|") == lines[2].index("|")


class TestHotspots:
    def _trace(self, fraction):
        return generate_compiled(
            SyntheticTraceConfig(
                duration_s=300.0,
                iops=40.0,
                write_ratio=1.0,
                avg_request_bytes=8 * KB,
                footprint_bytes=64 * MB,
                write_sequential_fraction=0.0,
                hotspot_fraction=fraction,
                hotspot_span=0.1,
                seed=6,
            )
        )

    def test_disabled_by_default(self):
        trace = self._trace(0.0)
        hot = sum(1 for r in trace if r.offset < 64 * MB // 10)
        assert hot / len(trace) < 0.2

    def test_skew_concentrates_accesses(self):
        trace = self._trace(0.8)
        hot = sum(1 for r in trace if r.offset < 64 * MB // 10)
        assert hot / len(trace) > 0.7

    def test_offsets_still_in_bounds(self):
        for record in self._trace(0.9):
            assert record.offset + record.nbytes <= 64 * MB

    def test_validation(self):
        with pytest.raises(ValueError):
            self._config_with(hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            self._config_with(hotspot_span=0.0)

    @staticmethod
    def _config_with(**kwargs):
        return SyntheticTraceConfig(
            duration_s=10.0,
            iops=10.0,
            footprint_bytes=8 * MB,
            **kwargs,
        )
