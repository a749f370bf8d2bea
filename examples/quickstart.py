#!/usr/bin/env python3
"""Quickstart: simulate RoLo-P against plain RAID10 on a small workload.

Run with::

    python examples/quickstart.py

This builds a 10-pair RAID10 array of IBM Ultrastar 36Z15 drives, replays
the same write-heavy synthetic trace through the plain-RAID10 baseline and
the RoLo-P rotated-logging controller, and prints the energy/performance
comparison — the 60-second version of the paper's Figure 10.
"""

from repro.core import ArrayConfig, build_controller, run_trace
from repro.sim import Simulator
from repro.traces import SyntheticTraceConfig, generate_compiled

KB = 1024
MB = 1024 * KB


def main() -> None:
    # A 10-pair array, with capacities scaled down 50x so the demo's
    # 5-minute trace spans multiple logging periods (see DESIGN.md §3).
    config = ArrayConfig(n_pairs=10).scaled(0.02)

    # 40 write IOPS of 64 KB requests, mildly sequential, over a 256 MiB
    # working set - a miniature of the paper's src2_2 trace.
    trace = generate_compiled(
        SyntheticTraceConfig(
            duration_s=300.0,
            iops=40.0,
            write_ratio=0.98,
            avg_request_bytes=64 * KB,
            footprint_bytes=256 * MB,
            write_sequential_fraction=0.3,
            read_locality=0.8,
            seed=7,
        )
    )
    print(f"trace: {len(trace)} requests over {trace.duration:.0f}s\n")

    results = {}
    for scheme in ("raid10", "rolo-p"):
        sim = Simulator()
        controller = build_controller(scheme, sim, config)
        metrics = run_trace(controller, trace)
        controller.assert_consistent()  # every mirror byte is back in sync
        results[scheme] = metrics
        print(
            f"{scheme:8s}  mean response = {metrics.mean_response_time_ms:7.3f} ms   "
            f"mean power = {metrics.mean_power_w:6.1f} W   "
            f"disk spins = {metrics.spin_cycle_count}   "
            f"logger rotations = {metrics.rotations}"
        )

    base, rolo = results["raid10"], results["rolo-p"]
    saved = 1 - rolo.total_energy_j / base.total_energy_j
    slowdown = rolo.response_time.mean / base.response_time.mean - 1
    print(
        f"\nRoLo-P saved {saved:.1%} energy for a "
        f"{slowdown:+.1%} response-time change."
    )


if __name__ == "__main__":
    main()
