"""Extension experiment: RoLo on a parity-based array (paper §VII).

The paper closes with "a study on the feasibility and efficiency of RoLo
deployed in parity-based storage systems will be conducted as our future
work".  This experiment conducts it: plain RAID5 (synchronous parity
read-modify-write) against RoLo-5 (rotated parity logging with idle-gated
parity updates) across write intensities and request sizes.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import Raid5Config, build_controller
from repro.core.base import run_trace
from repro.experiments.registry import register
from repro.experiments.report import Report, Series, Table
from repro.sim import Simulator
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

KB = 1024
MB = 1024 * KB


@register(
    "ext-raid5",
    "RoLo-5 vs plain RAID5: the small-write problem (extension)",
    "§VII future work",
)
def run(
    scale: float = 0.02,
    n_disks: int = 10,
    iops_levels: Iterable[float] = (10, 30, 60),
    request_kb: Iterable[int] = (4, 16, 64),
    duration_s: float = 300.0,
    seed: int = 42,
) -> Report:
    report = Report("ext-raid5", "Parity-based RoLo study")
    report.parameters = {"n_disks": n_disks, "duration_s": duration_s}
    table = report.add_table(
        Table(
            "small-write response time: RAID5 vs RoLo-5",
            [
                "iops",
                "req_kb",
                "raid5_rt_ms",
                "rolo5_rt_ms",
                "speedup",
                "rmw_avoided",
                "parity_updates",
            ],
            note="speedup = raid5_rt / rolo5_rt on an all-write workload",
        )
    )
    series = report.add_series(
        Series("rolo5-speedup@16KB", "iops", "speedup")
    )
    config = Raid5Config(n_disks=n_disks).scaled(scale)
    for iops in iops_levels:
        for req_kb in request_kb:
            workload = SyntheticTraceConfig(
                duration_s=duration_s,
                iops=iops,
                write_ratio=1.0,
                avg_request_bytes=req_kb * KB,
                footprint_bytes=max(
                    64 * MB, int(config.free_space_bytes * 2)
                ),
                write_sequential_fraction=0.1,
                seed=seed,
                name=f"raid5-{iops}-{req_kb}",
            )
            trace = generate_trace(workload)
            results = {}
            for scheme in ("raid5", "rolo-5"):
                sim = Simulator()
                controller = build_controller(scheme, sim, config)
                metrics = run_trace(controller, trace)
                controller.assert_consistent()
                results[scheme] = (metrics, controller)
            base, base_ctrl = results["raid5"]
            rolo, rolo_ctrl = results["rolo-5"]
            speedup = (
                base.response_time.mean / rolo.response_time.mean
                if rolo.response_time.mean
                else 0.0
            )
            table.add_row(
                iops,
                req_kb,
                base.mean_response_time_ms,
                rolo.mean_response_time_ms,
                speedup,
                base_ctrl.parity_rmw_count - rolo_ctrl.parity_rmw_count,
                # post-drain count: deferred parity updates actually done
                rolo_ctrl.metrics.destaged_bytes // config.stripe_unit,
            )
            if req_kb == 16:
                series.add(iops, speedup)
    return report
