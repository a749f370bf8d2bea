"""Command-line interface: ``rolo`` (or ``python -m repro.cli``).

Subcommands::

    rolo list                         # available experiments + workloads
    rolo run fig10 [--jobs 8]         # reproduce one paper artifact
    rolo run all                      # everything (slow)
    rolo cache info                   # persistent result-cache status
    rolo cache clear                  # drop every cached simulation
    rolo trace-info src2_2            # characterize a workload replica
    rolo mttdl --mttr-days 3          # reliability numbers
    rolo simulate rolo-p src2_2       # one scheme x workload run
    rolo simulate rolo-p src2_2 --trace out.json --sample-interval 0.5
    rolo run fig10 --profile          # per-cell timing report
    rolo trace summarize out.json     # inspect an event trace
    rolo simulate rolo-e src2_2 --spans spans.jsonl  # causal spans + attribution
    rolo trace explore spans.jsonl    # self-contained HTML timeline explorer
    rolo report --attribution         # report with critical-path columns
    rolo simulate rolo-p src2_2 --metrics m.prom   # metered run + snapshot
    rolo run fig10 --progress         # live progress/ETA + worker table
    rolo top metrics.jsonl            # render a metrics snapshot
    rolo report --out report.html     # latency/power run report
    rolo verify run --scenarios 50    # differential fuzz sweep + shrinking
    rolo verify repro repro-X.json    # replay a shrunk failure artifact

``rolo run`` fans uncached simulation cells out over a process pool
(``--jobs N``, default: all cores; ``--jobs 1`` is the exact serial path)
and persists finished cells under ``.rolo-cache/`` (``--no-cache`` /
``--cache-dir`` control this), so repeated invocations are near-instant.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import List, Optional

from repro.experiments import cache as result_cache
from repro.experiments import get_experiment, list_experiments, runner
from repro.experiments.parallel import (
    CellExecution,
    CellExecutionError,
    default_jobs,
    execute_cells,
)
from repro.experiments.runner import simulate_workload
from repro.reliability import mttdl_closed_form, mttdl_ctmc
from repro.reliability.mttdl import HOURS_PER_DAY, HOURS_PER_YEAR
from repro.traces import PAPER_WORKLOADS, build_workload_trace, characterize


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for exp in list_experiments():
        print(f"  {exp.experiment_id:14s} {exp.title}  [{exp.paper_ref}]")
    print("\nworkloads:")
    for name, preset in sorted(PAPER_WORKLOADS.items()):
        print(
            f"  {name:10s} write={preset.write_ratio * 100:6.2f}%  "
            f"iops={preset.iops:6.2f}  "
            f"avg={preset.avg_request_bytes / 1024:6.2f}KB"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    previous_cache = result_cache.active_cache()
    result_cache.configure(
        directory=args.cache_dir, enabled=not args.no_cache
    )
    try:
        return _run_experiments(args)
    finally:
        # Restore so embedded callers (tests, notebooks) keep their own
        # cache configuration across CLI invocations.
        result_cache.configure(
            directory=previous_cache.directory if previous_cache else None,
            enabled=previous_cache is not None,
        )


def _run_experiments(args: argparse.Namespace) -> int:
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        print(f"invalid --jobs {jobs}", file=sys.stderr)
        return 2
    if args.experiment == "all":
        ids = [e.experiment_id for e in list_experiments()]
    else:
        ids = [args.experiment]
    # --progress/--metrics-out meter the sweep (dispatcher telemetry +
    # per-cell latency/power registries) into one registry for every
    # experiment; metering is observe-only, so results are byte-identical
    # either way.  --profile combines with both.
    registry = None
    if args.progress or args.metrics_out:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    progress = None
    if args.progress:
        from repro.experiments.parallel import SweepProgress

        progress = SweepProgress()
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        kwargs = {}
        if args.scale is not None:
            kwargs["scale"] = args.scale
        if args.pairs is not None:
            kwargs["n_pairs"] = args.pairs
        started = time.perf_counter()
        # Pre-warm the caches: enumerate the experiment's simulation cells
        # and compute the misses (on the process pool when jobs > 1).
        # Experiments without an enumerator simply run serially below.
        cells = experiment.cells(seed=args.seed, **kwargs)
        stats = (
            execute_cells(
                cells,
                jobs=jobs,
                progress=progress,
                collect_profiles=args.profile,
                registry=registry,
            )
            if cells
            else CellExecution(jobs=jobs)
        )
        computed_before = runner.run_stats()["computed"]
        try:
            report = experiment.run(seed=args.seed, **kwargs)
        except TypeError:
            # Analytical experiments (fig9) take no seed/pairs.
            report = experiment.run(
                **{k: v for k, v in kwargs.items() if k == "scale"}
            )
        wall = time.perf_counter() - started
        computed = stats.computed + (
            runner.run_stats()["computed"] - computed_before
        )
        text = report.to_text()
        print(text)
        print()
        print(
            f"[cells] {experiment_id}: total={stats.unique} "
            f"cached={stats.cached} computed={computed} "
            f"jobs={jobs} wall={wall:.2f}s"
        )
        if args.profile and stats.profiles is not None:
            print()
            print(stats.profiles.render())
        print()
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(text + "\n\n")
        if args.svg_dir and report.series:
            from repro.experiments.svg import report_to_svgs

            for path in report_to_svgs(report, args.svg_dir):
                print(f"wrote {path}")
    if registry is not None:
        from repro.obs.metrics import format_sweep_table

        print(format_sweep_table(registry))
        if args.metrics_out:
            count = registry.write_jsonl(args.metrics_out)
            print(
                f"[metrics] wrote {count} metric families to "
                f"{args.metrics_out}"
            )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = result_cache.ResultCache(
        args.cache_dir or result_cache.DEFAULT_CACHE_DIR
    )
    if args.cache_command == "info":
        info = store.info()
        print(f"directory:       {info['directory']}")
        print(f"entries:         {info['entries']}")
        print(f"stale entries:   {info['stale_entries']}")
        print(f"total bytes:     {info['total_bytes']}")
        print(f"schema version:  {info['schema_version']}")
        print(f"package version: {info['package_version']}")
        from repro.traces import shm

        leaked = shm.leaked_segments()
        print(f"shm segments:    {len(leaked)} leaked")
        for name in leaked:
            print(f"  /dev/shm/{name}")
    else:  # clear
        removed = store.clear()
        print(f"removed {removed} cache entries from {store.directory}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    trace = build_workload_trace(args.workload, scale=args.scale)
    stats = characterize(trace)
    print(stats.row())
    print(
        f"  records={stats.records}  duration={stats.duration_s:.0f}s  "
        f"footprint={stats.footprint_bytes / 2**20:.0f}MiB  "
        f"avg_read={stats.avg_read_bytes / 1024:.1f}KB  "
        f"avg_write={stats.avg_write_bytes / 1024:.1f}KB"
    )
    return 0


def _cmd_mttdl(args: argparse.Namespace) -> int:
    mu = 1.0 / (args.mttr_days * HOURS_PER_DAY)
    print(
        f"lambda={args.failure_rate}/h  MTTR={args.mttr_days}d  (years)"
    )
    for scheme in ("rolo-r", "raid10", "rolo-p", "graid", "rolo-e"):
        closed = mttdl_closed_form(scheme, args.failure_rate, mu)
        exact = mttdl_ctmc(scheme, args.failure_rate, mu)
        print(
            f"  {scheme:7s} closed={closed / HOURS_PER_YEAR:12.0f}  "
            f"ctmc={exact / HOURS_PER_YEAR:12.0f}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    interval = args.sample_interval
    if interval is not None and not 0 < interval < math.inf:
        print(
            f"error: --sample-interval must be positive and finite, "
            f"got {interval!r}",
            file=sys.stderr,
        )
        return 2
    observed = (
        args.trace
        or args.spans
        or args.sample_interval is not None
        or args.profile
        or args.metrics
    )
    if observed:
        from repro.experiments.runner import run_cell_observed, workload_cell
        from repro.obs import MetricsRegistry, write_chrome_trace, write_jsonl

        cell = workload_cell(
            args.scheme,
            args.workload,
            scale=args.scale,
            n_pairs=args.pairs or 20,
            seed=args.seed,
        )
        registry = MetricsRegistry() if args.metrics else None
        run = run_cell_observed(
            cell,
            trace_events=bool(args.trace),
            sample_interval=args.sample_interval,
            profile=args.profile,
            spans=bool(args.spans),
            registry=registry,
        )
        metrics = run.metrics
    else:
        metrics = simulate_workload(
            args.scheme,
            args.workload,
            scale=args.scale,
            n_pairs=args.pairs or 20,
            seed=args.seed,
        )
    print(metrics.summary())
    print(
        f"  rotations={metrics.rotations}  destage_cycles="
        f"{metrics.destage_cycles}  logged={metrics.logged_bytes / 2**20:.0f}MiB  "
        f"destaged={metrics.destaged_bytes / 2**20:.0f}MiB  "
        f"read_hit_rate={metrics.read_hit_rate:.2%}"
    )
    if not observed:
        return 0
    if args.metrics:
        _write_metrics(args, registry)
    if args.trace:
        events = run.tracer.sorted_events()
        fmt = args.trace_format
        if fmt == "auto":
            fmt = "jsonl" if args.trace.endswith(".jsonl") else "chrome"
        if fmt == "jsonl":
            count = write_jsonl(events, args.trace)
        else:
            count = write_chrome_trace(events, args.trace)
        print(f"[trace] wrote {count} events to {args.trace} ({fmt})")
    if args.spans:
        from repro.obs import (
            attribute_events,
            attribution_summary,
            format_attribution,
        )

        events = run.tracer.sorted_events()
        if args.spans.endswith(".jsonl"):
            count = write_jsonl(events, args.spans)
            fmt = "jsonl"
        else:
            count = write_chrome_trace(events, args.spans)
            fmt = "chrome"
        print(f"[spans] wrote {count} events to {args.spans} ({fmt})")
        print(
            format_attribution(
                attribution_summary(attribute_events(events))
            )
        )
    if run.sampler is not None:
        if args.samples:
            count = run.sampler.to_csv(args.samples)
            print(f"[samples] wrote {count} samples to {args.samples}")
        else:
            print(run.sampler.summary())
    if args.profile:
        print(run.profile.report())
    return 0


def _write_metrics(args: argparse.Namespace, registry) -> None:
    """``rolo simulate ... --metrics PATH``: latency quantiles + snapshot."""
    from repro.obs.metrics import TRACKED_QUANTILES

    for op in ("read", "write"):
        histogram = registry.get(
            "request_latency_seconds",
            op=op,
            scheme=_scheme_label(registry),
        )
        if histogram is None or not histogram.count:
            continue
        quantiles = "  ".join(
            f"p{round(q * 100)}={histogram.quantile(q) * 1e3:.2f}ms"
            for q in TRACKED_QUANTILES[:3]
        )
        print(f"  {op:5s} latency: {quantiles}")
    fmt = args.metrics_format
    if fmt == "auto":
        fmt = (
            "prom"
            if args.metrics.endswith((".prom", ".txt"))
            else "jsonl"
        )
    if fmt == "prom":
        registry.write_prometheus(args.metrics)
        print(f"[metrics] wrote Prometheus text to {args.metrics}")
    else:
        count = registry.write_jsonl(args.metrics)
        print(
            f"[metrics] wrote {count} metric families to {args.metrics}"
        )


def _scheme_label(registry) -> str:
    """The scheme label the instrumentation stamped (e.g. ``RoLo-P``)."""
    for _, labels, _ in registry.samples():
        if "scheme" in labels:
            return labels["scheme"]
    return "?"


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.metrics import read_snapshot, render_registry

    try:
        registry = read_snapshot(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read snapshot: {exc}", file=sys.stderr)
        return 2
    print(render_registry(registry))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runreport import (
        build_run_report,
        render_markdown,
        report_cells,
        write_report,
    )

    previous_cache = result_cache.active_cache()
    result_cache.configure(
        directory=args.cache_dir, enabled=not args.no_cache
    )
    try:
        cells = report_cells(
            schemes=args.schemes.split(","),
            workloads=args.workloads.split(","),
            scale=args.scale,
            n_pairs=args.pairs or 20,
            seed=args.seed,
        )
        report = build_run_report(
            cells,
            jobs=args.jobs,
            title=args.title,
            attribution=args.attribution,
        )
    finally:
        result_cache.configure(
            directory=previous_cache.directory if previous_cache else None,
            enabled=previous_cache is not None,
        )
    if args.out:
        fmt = None if args.format == "auto" else args.format
        path = write_report(report, args.out, fmt=fmt)
        print(f"[report] wrote {path}")
    else:
        print(render_markdown(report))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_events, summarize_events

    if args.trace_command == "explore":
        import os

        from repro.obs import render_explorer_html

        events = list(read_events(args.file))
        html_text = render_explorer_html(events, top=args.top)
        out = args.out or os.path.splitext(args.file)[0] + ".html"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(html_text)
        print(f"[explore] wrote {out} ({len(events)} events)")
        return 0
    print(summarize_events(read_events(args.file)))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultScheduleError

    previous_cache = result_cache.active_cache()
    result_cache.configure(
        directory=args.cache_dir, enabled=not args.no_cache
    )
    try:
        if args.faults_command == "inject":
            return _faults_inject(args)
        return _faults_campaign(args)
    except (FaultScheduleError, NotImplementedError, CellExecutionError) as exc:
        # A schedule the scheme cannot run (a bad spec, a disk it does not
        # have, a failure a parity array cannot serve) is a usage error,
        # whether it surfaced here or in a pool worker.
        cause = exc.__cause__ if isinstance(exc, CellExecutionError) else exc
        if not isinstance(cause, (FaultScheduleError, NotImplementedError)):
            raise
        print(f"error: {cause}", file=sys.stderr)
        return 2
    finally:
        result_cache.configure(
            directory=previous_cache.directory if previous_cache else None,
            enabled=previous_cache is not None,
        )


def _faults_inject(args: argparse.Namespace) -> int:
    from repro.faults import FaultSchedule, fault_cell

    schedule = FaultSchedule.parse(args.spec)
    cell = fault_cell(
        args.scheme,
        args.workload,
        schedule,
        scale=args.scale,
        n_pairs=args.pairs or 4,
        seed=args.seed,
    )
    result = cell.execute()
    print(result.metrics.summary())
    print(f"  schedule: {result.schedule}")
    for event in result.events:
        extra = {
            k: v
            for k, v in event.items()
            if k not in ("kind", "disk", "t")
        }
        tail = f"  {extra}" if extra else ""
        print(
            f"  [{event['t']:9.3f}s] {event['kind']:14s} "
            f"{event['disk']}{tail}"
        )
    for rebuild in result.rebuilds:
        print(
            f"  [{rebuild['finished']:9.3f}s] rebuild of {rebuild['disk']} "
            f"done in {rebuild['rebuild_time']:.1f}s"
        )
    for check in result.checks:
        verdict = "OK" if check.ok else f"LOST {len(check.lost)} blocks"
        print(
            f"  oracle @{check.time:9.3f}s {check.event:24s} "
            f"tracked={check.tracked_units}  {verdict}"
        )
    return 0 if result.consistent else 1


def _faults_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.faults import (
        FaultScheduleError,
        build_campaign,
        campaign_summary,
        run_campaign,
    )

    jobs = args.jobs if args.jobs is not None else default_jobs()
    try:
        times = [float(t) for t in args.times.split(",") if t.strip()]
    except ValueError:
        raise FaultScheduleError(
            f"--times takes comma-separated seconds, not {args.times!r}"
        ) from None
    cells = build_campaign(
        schemes=args.schemes.split(","),
        workloads=args.workloads.split(","),
        fault_times=times,
        disks=args.disks.split(","),
        scale=args.scale,
        n_pairs=args.pairs or 4,
        seed=args.seed,
    )
    if args.progress:
        from repro.experiments.parallel import SweepProgress
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        progress = SweepProgress()
    else:
        registry = None
        progress = functools.partial(print, file=sys.stderr)
    results = run_campaign(
        cells, jobs=jobs, progress=progress, registry=registry
    )
    summary = campaign_summary(cells, results)
    if registry is not None:
        from repro.obs.metrics import format_sweep_table

        print(format_sweep_table(registry), file=sys.stderr)
    width = max(len(row["schedule"]) for row in summary["rows"])
    for row in summary["rows"]:
        verdict = "OK" if row["consistent"] else "INCONSISTENT"
        rebuild = (
            f"rebuild={row['rebuild_time_s']:.1f}s"
            if row["rebuild_time_s"] is not None
            else "no rebuild"
        )
        print(
            f"  {row['scheme']:7s} {row['workload']:8s} "
            f"{row['schedule']:{width}s}  lost={row['lost_blocks']}  "
            f"{rebuild}  {verdict}"
        )
    print(
        f"[campaign] cells={summary['cells']} "
        f"inconsistent={summary['inconsistent_cells']} jobs={jobs}"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if summary["inconsistent_cells"] == 0 else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    previous_cache = result_cache.active_cache()
    result_cache.configure(
        directory=args.cache_dir, enabled=not args.no_cache
    )
    try:
        if args.verify_command == "repro":
            return _verify_repro(args)
        return _verify_run(args)
    finally:
        result_cache.configure(
            directory=previous_cache.directory if previous_cache else None,
            enabled=previous_cache is not None,
        )


def _verify_run(args: argparse.Namespace) -> int:
    from repro.verify import (
        generate_scenarios,
        run_fuzz,
        run_scenario,
        shrink,
        write_artifact,
    )

    jobs = args.jobs if args.jobs is not None else 1
    scenarios = generate_scenarios(args.scenarios, args.seed)
    results = run_fuzz(
        args.scenarios,
        seed=args.seed,
        jobs=jobs,
        progress=lambda line: print(line, file=sys.stderr),
        scenarios=scenarios,
    )
    failures = [r for r in results if not r.ok]
    checked = sum(r.reads_checked for r in results)
    sweeps = sum(r.invariant_sweeps for r in results)
    print(
        f"[verify] scenarios={len(results)} failures={len(failures)} "
        f"reads_checked={checked} invariant_sweeps={sweeps} "
        f"seed={args.seed} jobs={jobs}"
    )
    if not failures:
        return 0
    # Minimize each distinct failing scenario and emit a reproducer.
    seen = set()
    for result in failures:
        scenario = result.scenario
        if scenario.key() in seen:
            continue
        seen.add(scenario.key())
        print(f"FAIL {scenario.label()}", file=sys.stderr)
        for violation in result.violations[:5]:
            print(
                f"  [{violation['time']:9.3f}s] {violation['check']}: "
                f"{violation['detail']}",
                file=sys.stderr,
            )
        if not result.consistent:
            print(f"  oracle: {result.lost_blocks} blocks lost", file=sys.stderr)
        print("  shrinking...", file=sys.stderr)
        minimal = shrink(scenario)
        final = run_scenario(minimal)
        path = write_artifact(args.artifacts, minimal, final)
        print(f"  minimal: {minimal.label()}", file=sys.stderr)
        print(f"  reproduce with: rolo verify repro {path}")
    return 1


def _verify_repro(args: argparse.Namespace) -> int:
    from repro.verify import load_scenario, run_scenario

    scenario = load_scenario(args.file)
    print(f"[verify] replaying {scenario.label()}")
    result = run_scenario(scenario)
    for violation in result.violations:
        print(
            f"  [{violation['time']:9.3f}s] {violation['check']}: "
            f"{violation['detail']}"
        )
    if not result.consistent:
        print(f"  oracle: {result.lost_blocks} blocks lost")
    if result.ok:
        print(
            f"  PASS  reads_checked={result.reads_checked} "
            f"invariant_sweeps={result.invariant_sweeps}"
        )
        return 0
    print(f"  FAIL  {len(result.violations)} violations reproduced")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolo",
        description="RoLo (ICDCS 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads").set_defaults(
        fn=_cmd_list
    )

    run_p = sub.add_parser("run", help="run a paper experiment")
    run_p.add_argument("experiment", help="experiment id or 'all'")
    run_p.add_argument("--scale", type=float, default=None)
    run_p.add_argument("--pairs", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--out", help="append report text to this file")
    run_p.add_argument(
        "--svg-dir", help="also render the report's series to SVG charts"
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation cells "
        "(default: all cores; 1 = serial)",
    )
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this run",
    )
    run_p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-cache directory (default: .rolo-cache)",
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="report per-cell wall time, event counts and events/sec",
    )
    run_p.add_argument(
        "--progress",
        action="store_true",
        help="single-line live progress/ETA plus a final per-worker "
        "utilization table",
    )
    run_p.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the sweep's merged metrics registry as a JSONL "
        "snapshot (render with 'rolo top')",
    )
    run_p.set_defaults(fn=_cmd_run)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    cache_p.add_argument("cache_command", choices=("info", "clear"))
    cache_p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-cache directory (default: .rolo-cache)",
    )
    cache_p.set_defaults(fn=_cmd_cache)

    info_p = sub.add_parser("trace-info", help="characterize a workload")
    info_p.add_argument("workload")
    info_p.add_argument("--scale", type=float, default=0.05)
    info_p.set_defaults(fn=_cmd_trace_info)

    mttdl_p = sub.add_parser("mttdl", help="reliability numbers")
    mttdl_p.add_argument("--mttr-days", type=float, default=3.0)
    mttdl_p.add_argument("--failure-rate", type=float, default=1e-5)
    mttdl_p.set_defaults(fn=_cmd_mttdl)

    sim_p = sub.add_parser("simulate", help="one scheme x workload run")
    sim_p.add_argument("scheme")
    sim_p.add_argument("workload")
    sim_p.add_argument("--scale", type=float, default=None)
    sim_p.add_argument("--pairs", type=int, default=None)
    sim_p.add_argument("--seed", type=int, default=42)
    sim_p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record an event trace (.jsonl -> JSON Lines, otherwise "
        "Chrome trace-event JSON loadable in Perfetto)",
    )
    sim_p.add_argument(
        "--trace-format",
        choices=("auto", "chrome", "jsonl"),
        default="auto",
        help="trace file format (default: by --trace extension)",
    )
    sim_p.add_argument(
        "--spans",
        metavar="PATH",
        default=None,
        help="record causal spans with per-op phase timings (.jsonl -> "
        "JSON Lines, otherwise Chrome trace JSON with flow arrows) and "
        "print the critical-path latency attribution",
    )
    sim_p.add_argument(
        "--sample-interval",
        type=float,
        metavar="SECONDS",
        default=None,
        help="sample queue depth / power / log occupancy at this "
        "virtual-time cadence",
    )
    sim_p.add_argument(
        "--samples",
        metavar="PATH",
        default=None,
        help="write time-series samples as CSV (default: print a summary)",
    )
    sim_p.add_argument(
        "--profile",
        action="store_true",
        help="report wall time, events processed and events/sec",
    )
    sim_p.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="run metered and write the registry snapshot here "
        "(.prom/.txt -> Prometheus text, otherwise JSONL)",
    )
    sim_p.add_argument(
        "--metrics-format",
        choices=("auto", "prom", "jsonl"),
        default="auto",
        help="snapshot format (default: by --metrics extension)",
    )
    sim_p.set_defaults(fn=_cmd_simulate)

    top_p = sub.add_parser(
        "top", help="render a metrics JSONL snapshot as a summary table"
    )
    top_p.add_argument("file", help="snapshot from --metrics/--metrics-out")
    top_p.set_defaults(fn=_cmd_top)

    report_p = sub.add_parser(
        "report",
        help="latency/power run report (markdown or self-contained HTML)",
    )
    report_p.add_argument(
        "--schemes", default="raid10,graid,rolo-p,rolo-r,rolo-e"
    )
    report_p.add_argument("--workloads", default="src2_2")
    report_p.add_argument("--scale", type=float, default=None)
    report_p.add_argument("--pairs", type=int, default=None)
    report_p.add_argument("--seed", type=int, default=42)
    report_p.add_argument(
        "--jobs", type=int, default=None, help="worker processes"
    )
    report_p.add_argument(
        "--title", default="RoLo run report", help="report heading"
    )
    report_p.add_argument(
        "--out",
        default=None,
        help="write here (.html -> HTML with inline SVG charts, "
        "otherwise markdown; default: print markdown)",
    )
    report_p.add_argument(
        "--format",
        choices=("auto", "html", "markdown"),
        default="auto",
        help="output format (default: by --out extension)",
    )
    report_p.add_argument(
        "--attribution",
        action="store_true",
        help="re-run each cell span-traced and add critical-path "
        "latency-attribution columns (queue/spin-up/interference/"
        "seek/rotation/transfer)",
    )
    report_p.add_argument("--no-cache", action="store_true")
    report_p.add_argument("--cache-dir", default=None)
    report_p.set_defaults(fn=_cmd_report)

    trace_p = sub.add_parser(
        "trace", help="inspect or render a recorded event trace"
    )
    trace_p.add_argument("trace_command", choices=("summarize", "explore"))
    trace_p.add_argument("file", help="trace file (Chrome JSON or JSONL)")
    trace_p.add_argument(
        "--out",
        default=None,
        help="explore: write the HTML timeline here "
        "(default: trace file with .html extension)",
    )
    trace_p.add_argument(
        "--top",
        type=int,
        default=8,
        help="explore: span trees for the K slowest requests (default 8)",
    )
    trace_p.set_defaults(fn=_cmd_trace)

    faults_p = sub.add_parser(
        "faults", help="fault injection with the consistency oracle"
    )
    faults_sub = faults_p.add_subparsers(
        dest="faults_command", required=True
    )

    inject_p = faults_sub.add_parser(
        "inject", help="one faulted scheme x workload run"
    )
    inject_p.add_argument("scheme")
    inject_p.add_argument("workload")
    inject_p.add_argument(
        "--spec",
        required=True,
        help=(
            "fault schedule, e.g. 'fail@30:M0' or "
            "'fail@30:M0:norebuild,slow@10:P1:4x20,lse@5:P0:2048+16'"
        ),
    )
    inject_p.add_argument("--scale", type=float, default=None)
    inject_p.add_argument("--pairs", type=int, default=None)
    inject_p.add_argument("--seed", type=int, default=42)
    inject_p.add_argument("--no-cache", action="store_true")
    inject_p.add_argument("--cache-dir", default=None)
    inject_p.set_defaults(fn=_cmd_faults)

    camp_p = faults_sub.add_parser(
        "campaign",
        help="scheme x workload x fault-time grid with oracle verdicts",
    )
    camp_p.add_argument(
        "--schemes", default="raid10,graid,rolo-p,rolo-r,rolo-e"
    )
    camp_p.add_argument("--workloads", default="src2_2")
    camp_p.add_argument(
        "--times", default="10,20,30,40,50", help="fault times (s), comma-separated"
    )
    camp_p.add_argument(
        "--disks", default="P0,M0", help="victim disks, comma-separated"
    )
    camp_p.add_argument("--scale", type=float, default=None)
    camp_p.add_argument("--pairs", type=int, default=None)
    camp_p.add_argument("--seed", type=int, default=42)
    camp_p.add_argument(
        "--jobs", type=int, default=None, help="worker processes"
    )
    camp_p.add_argument("--json", help="write the summary as JSON here")
    camp_p.add_argument(
        "--progress",
        action="store_true",
        help="single-line live progress/ETA plus a final per-worker "
        "utilization table",
    )
    camp_p.add_argument("--no-cache", action="store_true")
    camp_p.add_argument("--cache-dir", default=None)
    camp_p.set_defaults(fn=_cmd_faults)

    verify_p = sub.add_parser(
        "verify",
        help="differential verification: reference model + invariants + fuzzer",
    )
    verify_sub = verify_p.add_subparsers(
        dest="verify_command", required=True
    )

    vrun_p = verify_sub.add_parser(
        "run", help="seeded random scenario sweep with shrinking"
    )
    vrun_p.add_argument(
        "--scenarios", type=int, default=50, help="scenarios to generate"
    )
    vrun_p.add_argument("--seed", type=int, default=8)
    vrun_p.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default 1)"
    )
    vrun_p.add_argument(
        "--artifacts",
        default=".rolo-verify",
        help="directory for shrunk JSON reproducers",
    )
    vrun_p.add_argument("--no-cache", action="store_true")
    vrun_p.add_argument("--cache-dir", default=None)
    vrun_p.set_defaults(fn=_cmd_verify)

    vrepro_p = verify_sub.add_parser(
        "repro", help="replay a shrunk reproducer artifact"
    )
    vrepro_p.add_argument("file", help="artifact (or bare scenario) JSON")
    vrepro_p.add_argument("--no-cache", action="store_true")
    vrepro_p.add_argument("--cache-dir", default=None)
    vrepro_p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
