"""Self-contained run reports (``rolo report``).

Builds a scheme × workload report from cached cell results: a cell table
with tail latency percentiles (p50/p95/p99 from the response histogram),
energy and mean power, a per-state power residency breakdown, and a
scheme comparison against the always-on RAID10 baseline.  Rendered as
markdown (terminal/docs) or a single HTML file with the latency
distributions inlined as SVG via :mod:`repro.experiments.svg` — no
external assets, so the file survives being mailed around or uploaded as
a CI artifact.
"""

from __future__ import annotations

import html
import os
from typing import Any, Dict, List, Optional

from repro.core.metrics import RunMetrics
from repro.disk.power import PowerState
from repro.experiments.parallel import execute_cells
from repro.experiments.report import Series
from repro.experiments.runner import Cell, workload_cell

#: Latency quantiles every report surfaces (ISSUE 7 acceptance: p50/95/99).
REPORT_QUANTILES = (0.5, 0.95, 0.99)

#: The comparison anchor: RAID10 never powers down, so energy ratios
#: against it are the paper's headline numbers.
BASELINE_SCHEME = "raid10"


def report_cells(
    schemes: List[str],
    workloads: List[str],
    scale: Optional[float] = None,
    n_pairs: int = 20,
    seed: int = 42,
) -> List[Cell]:
    """The cell grid a report covers."""
    return [
        workload_cell(scheme, workload, scale=scale, n_pairs=n_pairs, seed=seed)
        for workload in workloads
        for scheme in schemes
    ]


def build_run_report(
    cells: List[Cell],
    jobs: Optional[int] = None,
    title: str = "RoLo run report",
    attribution: bool = False,
) -> Dict[str, Any]:
    """Execute (or fetch) every cell and assemble the report structure.

    The returned dict is plain data — the renderers below and the tests'
    golden assertions both consume it.  ``attribution=True`` re-runs each
    cell span-traced (bypassing caches; metrics stay byte-identical per
    the observability contract) and attaches a critical-path latency
    decomposition per cell — see :mod:`repro.obs.attribution`.
    """
    results = execute_cells(
        cells, jobs=jobs if jobs is not None else 1
    ).results
    entries = [
        _cell_entry(cell, metrics) for cell, metrics in zip(cells, results)
    ]
    if attribution:
        for cell, entry in zip(cells, entries):
            entry["attribution"] = _cell_attribution(cell)
    workloads = sorted({e["workload"] for e in entries})
    schemes = sorted({e["scheme"] for e in entries})
    return {
        "title": title,
        "schemes": schemes,
        "workloads": workloads,
        "cells": entries,
        "comparison": _scheme_comparison(entries),
    }


def _cell_attribution(cell: Cell) -> Dict[str, Any]:
    """Span-trace one cell and summarize its latency decomposition."""
    from repro.experiments.runner import run_cell_observed
    from repro.obs.attribution import attribute_events, attribution_summary

    observed = run_cell_observed(cell, spans=True)
    return attribution_summary(
        attribute_events(observed.tracer.sorted_events())
    )


def _cell_entry(cell: Cell, metrics: RunMetrics) -> Dict[str, Any]:
    histogram = metrics.response_histogram
    quantiles = {
        f"p{int(q * 100)}_ms": histogram.quantile(q) * 1e3
        for q in REPORT_QUANTILES
    }
    duration = metrics.duration_s
    residency = {}
    for role, states in metrics.state_time_by_role.items():
        total = sum(states.values())
        residency[role] = {
            state.value: (time / total if total else 0.0)
            for state, time in states.items()
            if time > 0
        }
    return {
        "scheme": cell.scheme,
        "workload": cell.workload
        or getattr(cell.trace_config, "name", "?"),
        "label": cell.label(),
        "requests": metrics.requests,
        "mean_ms": metrics.response_time.mean * 1e3,
        **quantiles,
        "duration_s": duration,
        "energy_j": metrics.total_energy_j,
        "mean_power_w": (
            metrics.total_energy_j / duration if duration else 0.0
        ),
        "spin_cycles": metrics.spin_cycle_count,
        "residency": residency,
        "histogram": {
            "bounds": list(metrics.response_histogram.bounds),
            "counts": list(metrics.response_histogram.counts),
        },
    }


def _scheme_comparison(entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Energy/latency ratios vs the RAID10 cell of the same workload."""
    baseline = {
        e["workload"]: e
        for e in entries
        if e["scheme"] == BASELINE_SCHEME
    }
    comparison = []
    for entry in entries:
        if entry["scheme"] == BASELINE_SCHEME:
            continue
        anchor = baseline.get(entry["workload"])
        if anchor is None or not anchor["energy_j"]:
            continue
        comparison.append(
            {
                "scheme": entry["scheme"],
                "workload": entry["workload"],
                "energy_ratio": entry["energy_j"] / anchor["energy_j"],
                "p95_ratio": (
                    entry["p95_ms"] / anchor["p95_ms"]
                    if anchor["p95_ms"]
                    else 0.0
                ),
            }
        )
    return comparison


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
_CELL_COLUMNS = (
    ("scheme", "scheme"),
    ("workload", "workload"),
    ("requests", "requests"),
    ("mean_ms", "mean ms"),
    ("p50_ms", "p50 ms"),
    ("p95_ms", "p95 ms"),
    ("p99_ms", "p99 ms"),
    ("energy_j", "energy J"),
    ("mean_power_w", "mean W"),
    ("spin_cycles", "spins"),
)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def render_markdown(report: Dict[str, Any]) -> str:
    lines = [f"# {report['title']}", ""]
    headers = [label for _, label in _CELL_COLUMNS]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for entry in report["cells"]:
        lines.append(
            "| "
            + " | ".join(_fmt(entry[key]) for key, _ in _CELL_COLUMNS)
            + " |"
        )
    lines.append("")
    lines.append("## Power-state residency")
    lines.append("")
    lines.append("| scheme | workload | role | " + " | ".join(
        s.value for s in PowerState if s is not PowerState.FAILED
    ) + " |")
    lines.append("|" + "|".join(
        "---" for _ in range(3 + len(PowerState) - 1)
    ) + "|")
    for entry in report["cells"]:
        for role in sorted(entry["residency"]):
            states = entry["residency"][role]
            cells = " | ".join(
                f"{states.get(s.value, 0.0) * 100:.1f}%"
                for s in PowerState
                if s is not PowerState.FAILED
            )
            lines.append(
                f"| {entry['scheme']} | {entry['workload']} | {role} "
                f"| {cells} |"
            )
    if report["comparison"]:
        lines.append("")
        lines.append(f"## vs {BASELINE_SCHEME}")
        lines.append("")
        lines.append("| scheme | workload | energy | p95 latency |")
        lines.append("|---|---|---|---|")
        for row in report["comparison"]:
            lines.append(
                f"| {row['scheme']} | {row['workload']} "
                f"| {row['energy_ratio']:.2f}x "
                f"| {row['p95_ratio']:.2f}x |"
            )
    attribution_rows = _attribution_rows(report)
    if attribution_rows:
        lines.append("")
        lines.append("## Critical-path attribution")
        lines.append("")
        lines.append(
            "| " + " | ".join(label for _, label in _ATTR_COLUMNS) + " |"
        )
        lines.append("|" + "|".join("---" for _ in _ATTR_COLUMNS) + "|")
        for row in attribution_rows:
            lines.append(
                "| "
                + " | ".join(str(row[key]) for key, _ in _ATTR_COLUMNS)
                + " |"
            )
    lines.append("")
    return "\n".join(lines)


#: Columns of the critical-path attribution table (``--attribution``).
_ATTR_COLUMNS = (
    ("scheme", "scheme"),
    ("workload", "workload"),
    ("stat", "stat"),
    ("latency_ms", "latency ms"),
    ("queue", "queue"),
    ("spinup", "spin-up"),
    ("interference", "interfere"),
    ("seek", "seek"),
    ("rotation", "rotation"),
    ("transfer", "transfer"),
    ("culprit", "culprit"),
)


def _attribution_rows(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten per-cell attribution summaries into renderable rows."""
    rows: List[Dict[str, Any]] = []
    for entry in report["cells"]:
        summary = entry.get("attribution")
        if not summary or not summary.get("count"):
            continue
        stats = [("mean", summary["mean"])]
        stats.extend(sorted(summary["quantiles"].items()))
        for stat, detail in stats:
            row = {
                "scheme": entry["scheme"],
                "workload": entry["workload"],
                "stat": stat,
                "latency_ms": f"{detail['latency_s'] * 1e3:.3f}",
                "culprit": detail.get("culprit") or "-",
            }
            for phase, fraction in detail["fractions"].items():
                row[phase] = f"{fraction * 100:.1f}%"
            rows.append(row)
    return rows


def _latency_charts(report: Dict[str, Any]) -> List[str]:
    """One latency-distribution chart per workload, one series per scheme."""
    from repro.experiments.svg import PALETTE, render_chart_svg

    charts = []
    for workload in report["workloads"]:
        series_list = []
        for entry in report["cells"]:
            if entry["workload"] != workload:
                continue
            histogram = entry["histogram"]
            series = Series(
                name=entry["scheme"],
                x_label="latency ms",
                y_label="requests",
            )
            for bound, count in zip(
                histogram["bounds"], histogram["counts"]
            ):
                if count:
                    series.add(bound * 1e3, float(count))
            if series.points:
                series_list.append(series)
        for start in range(0, len(series_list), len(PALETTE)):
            chunk = series_list[start : start + len(PALETTE)]
            charts.append(
                render_chart_svg(chunk, f"latency distribution - {workload}")
            )
    return charts


def render_html(report: Dict[str, Any]) -> str:
    headers = "".join(
        f"<th>{label}</th>" for _, label in _CELL_COLUMNS
    )
    rows = []
    for entry in report["cells"]:
        cells = "".join(
            f"<td>{html.escape(_fmt(entry[key]))}</td>"
            for key, _ in _CELL_COLUMNS
        )
        rows.append(f"<tr>{cells}</tr>")
    residency_rows = []
    states = [s for s in PowerState if s is not PowerState.FAILED]
    for entry in report["cells"]:
        for role in sorted(entry["residency"]):
            fractions = entry["residency"][role]
            cells = "".join(
                f"<td>{fractions.get(s.value, 0.0) * 100:.1f}%</td>"
                for s in states
            )
            residency_rows.append(
                f"<tr><td>{html.escape(entry['scheme'])}</td>"
                f"<td>{html.escape(entry['workload'])}</td>"
                f"<td>{html.escape(role)}</td>{cells}</tr>"
            )
    comparison_rows = [
        f"<tr><td>{html.escape(row['scheme'])}</td>"
        f"<td>{html.escape(row['workload'])}</td>"
        f"<td>{row['energy_ratio']:.2f}x</td>"
        f"<td>{row['p95_ratio']:.2f}x</td></tr>"
        for row in report["comparison"]
    ]
    comparison_html = ""
    if comparison_rows:
        comparison_html = (
            f"<h2>vs {BASELINE_SCHEME}</h2>"
            "<table><tr><th>scheme</th><th>workload</th>"
            "<th>energy</th><th>p95 latency</th></tr>"
            + "".join(comparison_rows)
            + "</table>"
        )
    attribution_html = ""
    attribution_rows = _attribution_rows(report)
    if attribution_rows:
        attr_heads = "".join(
            f"<th>{label}</th>" for _, label in _ATTR_COLUMNS
        )
        attr_body = "".join(
            "<tr>"
            + "".join(
                f"<td>{html.escape(str(row[key]))}</td>"
                for key, _ in _ATTR_COLUMNS
            )
            + "</tr>"
            for row in attribution_rows
        )
        attribution_html = (
            "<h2>Critical-path attribution</h2>"
            f"<table><tr>{attr_heads}</tr>{attr_body}</table>"
        )
    state_heads = "".join(f"<th>{s.value}</th>" for s in states)
    charts = "\n".join(_latency_charts(report))
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>{html.escape(report["title"])}</title>
<style>
body {{ font-family: -apple-system, sans-serif; margin: 2rem; }}
table {{ border-collapse: collapse; margin-bottom: 1.5rem; }}
td, th {{ border: 1px solid #ccc; padding: 0.3rem 0.6rem;
          text-align: right; }}
td:first-child, th:first-child {{ text-align: left; }}
</style></head><body>
<h1>{html.escape(report["title"])}</h1>
<table><tr>{headers}</tr>
{chr(10).join(rows)}
</table>
<h2>Power-state residency</h2>
<table><tr><th>scheme</th><th>workload</th><th>role</th>{state_heads}</tr>
{chr(10).join(residency_rows)}
</table>
{comparison_html}
{attribution_html}
{charts}
</body></html>
"""


def write_report(
    report: Dict[str, Any], path: str, fmt: Optional[str] = None
) -> str:
    """Write markdown or HTML depending on ``fmt`` (or the extension)."""
    if fmt is None:
        fmt = "html" if path.endswith((".html", ".htm")) else "markdown"
    text = render_html(report) if fmt == "html" else render_markdown(report)
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
