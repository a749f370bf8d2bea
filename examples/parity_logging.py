#!/usr/bin/env python3
"""RoLo on a parity array: fixing RAID5's small-write problem (§VII).

Run with::

    python examples/parity_logging.py

A RAID5 small write costs four I/Os (read old data, read old parity, write
data, write parity).  RoLo-5 — the paper's proposed future work, built
here — logs the XOR delta to a rotating on-duty log region instead and
refreshes parity through idle slots, cutting the foreground cost to three
I/Os of which one is a cheap sequential append.
"""

from repro.core import Raid5Config, build_controller
from repro.core.base import run_trace
from repro.sim import Simulator
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

KB = 1024
MB = 1024 * KB


def main() -> None:
    trace = generate_trace(
        SyntheticTraceConfig(
            duration_s=300.0,
            iops=40.0,
            write_ratio=1.0,
            avg_request_bytes=8 * KB,  # classic OLTP-style small writes
            footprint_bytes=256 * MB,
            write_sequential_fraction=0.1,
            seed=13,
        )
    )
    print(
        f"workload: {len(trace)} small writes "
        f"({trace.records[0].nbytes // KB} KB each) over "
        f"{trace.duration:.0f}s\n"
    )
    config = Raid5Config(n_disks=10).scaled(0.05)
    for scheme in ("raid5", "rolo-5"):
        sim = Simulator()
        controller = build_controller(scheme, sim, config)
        metrics = run_trace(controller, trace)
        controller.assert_consistent()
        ops = sum(d.ops_completed for d in controller.disks)
        print(
            f"{scheme:7s} mean rt = {metrics.mean_response_time_ms:7.3f} ms   "
            f"disk ops = {ops:6d}   parity RMWs = "
            f"{controller.parity_rmw_count:6d}   rotations = "
            f"{controller.metrics.rotations}"
        )


if __name__ == "__main__":
    main()
