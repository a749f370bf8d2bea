"""Tests for ``rolo report``.

Run reports must surface p50/p95/p99 latency and per-state power
residency in both the HTML and the Markdown rendering.
"""

import pytest

from repro.experiments import clear_cache
from repro.experiments.runreport import (
    build_run_report,
    render_html,
    render_markdown,
    report_cells,
    write_report,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


def _small_report():
    cells = report_cells(
        ["raid10", "rolo-p"], ["wdev_0"], scale=0.02, n_pairs=4, seed=3
    )
    return build_run_report(cells, title="test report")


# ----------------------------------------------------------------------
# rolo report
# ----------------------------------------------------------------------
class TestRunReport:
    def test_report_structure_has_quantiles_and_residency(self):
        report = _small_report()
        assert report["schemes"] == ["raid10", "rolo-p"]
        assert report["workloads"] == ["wdev_0"]
        for entry in report["cells"]:
            for key in ("p50_ms", "p95_ms", "p99_ms"):
                assert entry[key] >= 0.0
            assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
            assert entry["energy_j"] > 0
            assert entry["residency"]
            for states in entry["residency"].values():
                assert 0.99 < sum(states.values()) <= 1.01
        # rolo-p spins disks down; raid10 never does.
        by_scheme = {e["scheme"]: e for e in report["cells"]}
        assert by_scheme["rolo-p"]["energy_j"] < by_scheme["raid10"]["energy_j"]

    def test_comparison_anchors_on_raid10(self):
        report = _small_report()
        rows = {r["scheme"]: r for r in report["comparison"]}
        assert set(rows) == {"rolo-p"}
        assert 0 < rows["rolo-p"]["energy_ratio"] < 1.0
        assert rows["rolo-p"]["p95_ratio"] > 0

    def test_markdown_renders_quantiles_and_residency(self):
        report = _small_report()
        text = render_markdown(report)
        for token in ("p50 ms", "p95 ms", "p99 ms"):
            assert token in text
        assert "Power-state residency" in text
        assert "vs raid10" in text

    def test_html_is_self_contained_with_inline_svg(self, tmp_path):
        report = _small_report()
        html_text = render_html(report)
        assert "<svg" in html_text
        assert "latency distribution - wdev_0" in html_text
        # write_report picks format from the extension and makes dirs.
        path = tmp_path / "deep" / "report.html"
        write_report(report, str(path))
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        md_path = tmp_path / "deep" / "report.md"
        write_report(report, str(md_path))
        assert md_path.read_text(encoding="utf-8").startswith("# ")

