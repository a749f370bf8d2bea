"""Extension experiment: idle-slot length analysis (§II).

The paper's motivation cites that "most idle time slots are much shorter
than the break-even time for modern disks to spin down to save power" —
exactly why RoLo harvests them for destaging instead of sleeping through
them.  This experiment measures the idle-gap distribution of the primary
disks and the log disk in a GRAID array and reports the fraction of slots
below the drive's break-even time.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import ArrayConfig, build_controller
from repro.core.base import run_trace as run_trace_base
from repro.experiments.fig2 import _workload
from repro.experiments.registry import register
from repro.experiments.report import Report, Table
from repro.sim import Simulator
from repro.traces.synthetic import generate_compiled

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@register(
    "ext-idleslots",
    "Idle-slot lengths vs the spin-down break-even time (extension)",
    "§II motivation",
)
def run(
    scale: float = 0.02,
    iops_levels: Iterable[float] = (10, 50, 100, 200),
    duration_s: float = 900.0,
    seed: int = 42,
) -> Report:
    report = Report("ext-idleslots", "Idle time-slot analysis (GRAID)")
    capacity = max(int(16 * GB * scale), 64 * MB // 8)
    config = ArrayConfig(
        n_pairs=10,
        graid_log_capacity_bytes=capacity,
        free_space_bytes=max(capacity // 2, 32 * MB // 8),
    )
    break_even = config.disk.break_even_time
    report.parameters = {
        "break_even_s": round(break_even, 2),
        "duration_s": duration_s,
    }
    table = report.add_table(
        Table(
            "idle slots shorter than the break-even time",
            [
                "iops",
                "role",
                "slots",
                "below_break_even",
                "median_gap_s",
                "p90_gap_s",
            ],
            note=(
                "slots counted while spun up; high below-break-even "
                "fractions mean sleeping through them would waste energy "
                "- RoLo destages through them instead"
            ),
        )
    )
    for iops in iops_levels:
        sim = Simulator()
        controller = build_controller("graid", sim, config)
        trace = generate_compiled(
            _workload(iops, duration_s, capacity * 2, seed)
        )
        run_trace_base(controller, trace, drain=False)
        from repro.sim.stats import Histogram

        for role, disks in controller.disks_by_role().items():
            if role == "mirror":
                continue  # mirrors sleep; their gaps are not "slots"
            combined = Histogram.exponential(0.01, 2.0, 24)
            for disk in disks:
                hist = disk.idle_gap_histogram
                for i, count in enumerate(hist.counts):
                    combined.counts[i] += count
                combined.count += hist.count
            if combined.count == 0:
                continue
            short = sum(
                count
                for bound, count in combined.nonzero_buckets()
                if bound <= break_even
            )
            table.add_row(
                iops,
                role,
                combined.count,
                short / combined.count,
                combined.quantile(0.5),
                combined.quantile(0.9),
            )
    return report
