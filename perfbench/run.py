"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper-fig10 --seed 3 --seconds 35 --trace 0

``--trace 0`` times rounds of the workload for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` runs one round untraced, then one
round with every layer's entry points wrapped (``layers.py``), prints the
per-layer metrics and writes the spans to
``.perfbench-out/<workload>-spans.npz`` (the latest traced run of each).  The
last line of stdout is always the JSON result; the lines before it repeat
each metric by name with its unit, the error rate, and the load
discipline.  See ``BENCHMARK.json`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import resource
import statistics
import sys
import time

import srcpath

#: ``setup_s`` is the median of many set-ups spread over the run: at
#: least SETUP_FIRST_S seconds of them before the first round and at least
#: SETUP_BETWEEN_S seconds (one set-up at the least) between rounds.
#: Set-ups last 30-700 ms, and the speed of a shared 2-vCPU host swings by
#: up to 2x within a second, so one burst of set-ups reads whatever the
#: host did then.
SETUP_FIRST_S = 2.5
SETUP_BETWEEN_S = 0.4

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "scenarios_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "energy_err_pp": "pp",
}

PER_LAYER = {
    "traces.gen_s": "s",
    "traces.records_per_s": "1/s",
    "traces.shm_publish_s": "s",
    "traces.shm_bytes": "B",
    "sim.events_per_req": "count/req",
    "sim.self_us_per_req": "us/req",
    "disk.ops_per_req": "count/req",
    "disk.service_calls_per_req": "count/req",
    "disk.power_transitions_per_req": "count/req",
    "disk.self_us_per_req": "us/req",
    "disk.spin_ups": "count",
    "raid.map_extent_per_req": "count/req",
    "raid.segments_per_req": "count/req",
    "raid.self_us_per_req": "us/req",
    "core.controller.self_us_per_req": "us/req",
    "core.logspace.appends_per_req": "count/req",
    "core.logspace.reclaims": "count",
    "core.logspace.self_us_per_req": "us/req",
    "core.destage.batches": "count",
    "core.destage.coalesce_s": "s",
    "core.recovery.rebuild_s": "s",
    "core.rotation.rotations": "count",
    "core.destage.cycles": "count",
    "core.logspace.logged_bytes": "B",
    "core.destage.destaged_bytes": "B",
    "cache.lookups_per_req": "count/req",
    "cache.hit_rate": "ratio",
    "experiments.dispatch_s": "s",
    "experiments.worker_busy_frac": "ratio",
    "experiments.payload_bytes_per_cell": "B/cell",
    "faults.oracle_checks_per_req": "count/req",
    "verify.invariant_sweeps": "count",
    "verify.reads_checked": "count",
    "verify.self_us_per_req": "us/req",
    "obs.metered_cost_x": "x",
    "obs.spanned_cost_x": "x",
    "obs.span_events_per_req": "count/req",
    "obs.attribute_us_per_req": "us/req",
    "obs.harvest_s": "s",
    "trace.overhead_x": "x",
}

WORKLOADS = ("paper-fig10", "verify-fuzz", "observe-attribute")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_setups(case, times, min_s: float) -> None:
    """Set ``case`` up at least once and for ``min_s`` of host time,
    timing each in reference seconds.

    Garbage of earlier rounds is collected first and the collector is
    off while a set-up runs, so no pause left over from a round lands in
    it.
    """
    spent = 0.0
    while True:
        gc.collect()
        case.speed.sample()
        gc.disable()
        try:
            started = time.perf_counter()
            case.setup()
            ended = time.perf_counter()
        finally:
            gc.enable()
        case.speed.sample()
        times.append(case.speed.scaled(started, ended))
        spent += ended - started
        if spent >= min_s:
            return


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(case, rounds, setup_times) -> dict:
    """Medians over rounds: each unit's median time, summed.

    Times are reference seconds (``hostspeed``): host time scaled by the
    host's speed around each unit.
    """
    first = rounds[0]
    median_s = {
        unit: statistics.median(
            case.speed.scaled(*r.spans[unit]) for r in rounds
            if unit in r.spans
        )
        for unit in first.spans
    }
    busy = sum(median_s.values())
    return {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": sum(first.requests.values()) / busy,
        "scenarios_per_s": sum(first.cells.values()) / busy,
        "peak_rss_mb": peak_rss_mb(),
        "energy_err_pp": case.energy_err_pp(first),
    }


def per_layer(log, plain, traced) -> dict:
    """Per-layer metrics of one traced round (``plain``: untraced twin)."""
    spans = log.per_name()
    layer_self = collections.Counter()
    for name, stats in spans.items():
        layer_self[log.layer_of[name]] += stats["self_s"]
    counters = log.counters
    totals = traced.totals
    requests = sum(m.requests for m in traced.runs)

    def count(name):
        return spans[name]["count"]

    def total_s(name):
        return spans[name]["total_s"]

    def per_req(value):
        return value / requests

    def self_us(layer):
        return 1e6 * layer_self[layer] / requests

    gen_s = total_s("generate_compiled")
    attributed = totals["attributed"]
    return {
        "traces.gen_s": gen_s,
        "traces.records_per_s": _ratio(counters["traces.records"], gen_s),
        "traces.shm_publish_s": total_s("SharedTraceStore.publish"),
        "traces.shm_bytes": counters["traces.shm_bytes"],
        "sim.events_per_req": per_req(counters["sim.events"]),
        "sim.self_us_per_req": self_us("sim"),
        "disk.ops_per_req": per_req(count("Disk.submit")),
        "disk.service_calls_per_req": per_req(
            count("MechanicalModel.service_time")
        ),
        "disk.power_transitions_per_req": per_req(
            count("EnergyAccountant.transition")
        ),
        "disk.self_us_per_req": self_us("disk"),
        "disk.spin_ups": sum(m.spin_up_count for m in traced.runs),
        "raid.map_extent_per_req": per_req(count("Raid10Layout.map_extent")),
        "raid.segments_per_req": per_req(counters["raid.segments"]),
        "raid.self_us_per_req": self_us("raid"),
        "core.controller.self_us_per_req": self_us("core.controller"),
        "core.logspace.appends_per_req": per_req(count("LogRegion.append")),
        "core.logspace.reclaims": count("LogRegion.reclaim"),
        "core.logspace.self_us_per_req": self_us("core.logspace"),
        "core.destage.batches": counters["core.destage.batches"],
        "core.destage.coalesce_s": total_s("coalesce_units"),
        "core.recovery.rebuild_s": total_s("RecoveryProcess.__init__")
        + total_s("RecoveryProcess.start"),
        "core.rotation.rotations": sum(m.rotations for m in traced.runs),
        "core.destage.cycles": sum(m.destage_cycles for m in traced.runs),
        "core.logspace.logged_bytes": sum(
            m.logged_bytes for m in traced.runs
        ),
        "core.destage.destaged_bytes": sum(
            m.destaged_bytes for m in traced.runs
        ),
        "cache.lookups_per_req": per_req(count("LRUCache.get")),
        "cache.hit_rate": _ratio(
            counters["cache.hits"], count("LRUCache.get")
        ),
        "experiments.dispatch_s": counters["experiments.dispatch_s"],
        "experiments.worker_busy_frac": _ratio(
            counters["experiments.worker_busy_s"],
            counters["experiments.capacity_s"],
        ),
        "experiments.payload_bytes_per_cell": _ratio(
            counters["experiments.payload_bytes"],
            counters["experiments.cells"],
        ),
        "faults.oracle_checks_per_req": per_req(totals["oracle_checks"]),
        "verify.invariant_sweeps": totals["invariant_sweeps"],
        "verify.reads_checked": totals["reads_checked"],
        "verify.self_us_per_req": self_us("verify"),
        "obs.metered_cost_x": _ratio(
            plain.totals["metered_s"], plain.totals["plain_s"]
        ),
        "obs.spanned_cost_x": _ratio(
            plain.totals["spanned_s"], plain.totals["plain_s"]
        ),
        "obs.span_events_per_req": _ratio(totals["span_events"], attributed),
        "obs.attribute_us_per_req": _ratio(
            1e6 * (total_s("attribute_events")
                   + total_s("attribution_summary")),
            attributed,
        ),
        "obs.harvest_s": total_s("RunInstrumentation.harvest"),
        "trace.overhead_x": traced.wall / plain.wall,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    ``run_grouped`` publishes traces to shared memory, which starts the
    tracker: a helper process that otherwise outlives this one until it
    reads end-of-file on its pipe.  Closing the pipe and reaping it here
    leaves no process behind when the benchmark exits.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return bench(parse_args(argv))
    finally:
        stop_resource_tracker()


def bench(args) -> int:
    if not srcpath.source_present():
        print(f"perfbench: no simulator source under {srcpath.SRC}",
              file=sys.stderr)
        return 2
    import cases
    import layers

    workers = min(2, nproc())
    input_seed = args.seed % cases.GOLDEN_SEEDS
    case = cases.make_case(args.workload, input_seed, workers)
    tally = cases.Tally(cases.load_golden(args.workload, input_seed))

    timed = "one untraced and one traced round"
    if args.trace:
        case.setup()
        case.reference(tally)
        plain = case.run_round(tally)
        with layers.traced() as log:
            case.setup()
            traced = case.run_round(tally)
        out_dir = srcpath.SRC.parent / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        log.dump(out_dir / f"{args.workload}-spans.npz")
        values = per_layer(log, plain, traced)
        units = PER_LAYER
    else:
        setup_times = []
        timed_setups(case, setup_times, SETUP_FIRST_S)
        case.reference(tally)
        deadline = time.perf_counter() + args.seconds
        rounds = []
        while True:
            started = time.perf_counter()
            if rounds:
                timed_setups(case, setup_times, SETUP_BETWEEN_S)
            rounds.append(case.run_round(tally))
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        timed = f"{len(setup_times)} set-ups, {len(rounds)} rounds"
        values = end_to_end(case, rounds, setup_times)
        units = END_TO_END

    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"perfbench {args.workload}: seed {args.seed} (inputs of seed "
        f"{input_seed} mod {cases.GOLDEN_SEEDS}); load: nproc={nproc()}, "
        f"workers={workers if args.workload == 'verify-fuzz' else 1}, "
        f"one generator process, closed batch; timed: {timed}"
    )
    print(
        f"error_rate = {tally.failed}/{tally.attempted} = "
        f"{tally.failed / tally.attempted:g} failed cells / attempted cells"
    )
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
