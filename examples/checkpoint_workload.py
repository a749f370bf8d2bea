#!/usr/bin/env python3
"""RoLo-E for HPC checkpointing — the paper's §III-B3 motivating scenario.

Run with::

    python examples/checkpoint_workload.py

High-performance-computing checkpoint storage is nearly write-only: every
few minutes the application dumps a large state snapshot, and reads happen
only on (rare) restarts.  The paper argues this is RoLo-E's sweet spot —
one mirrored pair absorbs the bursts sequentially while the other 38 disks
sleep.  This example builds such a workload, runs RAID10 / GRAID / RoLo-E,
and shows the energy gap.
"""

from repro.core import ArrayConfig, build_controller, run_trace
from repro.sim import Simulator
from repro.traces import CompiledTrace, compiled_from_events

KB = 1024
MB = 1024 * KB


def checkpoint_trace(
    n_checkpoints: int = 12,
    interval_s: float = 300.0,
    snapshot_bytes: int = 96 * MB,
    chunk_bytes: int = 1 * MB,
    dump_rate: float = 30 * MB,  # application-side dump bandwidth
) -> CompiledTrace:
    """Periodic full-state dumps written as a sequential chunk stream."""
    chunk_gap = chunk_bytes / dump_rate
    events = [
        (checkpoint * interval_s + i * chunk_gap, True, i * chunk_bytes,
         chunk_bytes)
        for checkpoint in range(n_checkpoints)
        for i in range(snapshot_bytes // chunk_bytes)
    ]
    return compiled_from_events(events, name="hpc-checkpoint")


def main() -> None:
    trace = checkpoint_trace()
    print(
        f"checkpoint workload: {len(trace)} writes, "
        f"{sum(trace.sizes) / MB:.0f} MiB total, "
        f"{trace.duration / 60:.0f} minutes\n"
    )
    config = ArrayConfig(n_pairs=20).scaled(0.05)

    results = {}
    for scheme in ("raid10", "graid", "rolo-e"):
        sim = Simulator()
        controller = build_controller(scheme, sim, config)
        metrics = run_trace(controller, trace)
        controller.assert_consistent()
        results[scheme] = metrics
        print(
            f"{scheme:8s} mean rt = {metrics.mean_response_time_ms:8.2f} ms   "
            f"power = {metrics.mean_power_w:6.1f} W   "
            f"spins = {metrics.spin_cycle_count:4d}   "
            f"destage cycles = {metrics.destage_cycles}"
        )

    base = results["raid10"].total_energy_j
    for scheme in ("graid", "rolo-e"):
        saved = 1 - results[scheme].total_energy_j / base
        print(f"\n{scheme} saves {saved:.1%} energy over RAID10")
    print(
        "\nWith zero reads there are no miss-induced spin-ups, so RoLo-E "
        "keeps 38 of 40 disks asleep between checkpoint bursts."
    )


if __name__ == "__main__":
    main()
