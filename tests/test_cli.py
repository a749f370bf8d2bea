"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import cache as result_cache
from repro.experiments import clear_cache


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    result_cache.configure(enabled=False)
    yield
    result_cache.configure(enabled=False)
    clear_cache()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "fig9", "--scale", "0.02", "--pairs", "4"]
        )
        assert args.experiment == "fig9"
        assert args.scale == 0.02
        assert args.pairs == 4

    def test_run_parallel_and_cache_options(self):
        args = build_parser().parse_args(
            [
                "run",
                "fig10",
                "--jobs",
                "4",
                "--no-cache",
                "--cache-dir",
                "/tmp/x",
            ]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/x"

    def test_run_cache_defaults(self):
        args = build_parser().parse_args(["run", "fig10"])
        assert args.jobs is None  # resolved to os.cpu_count() at run time
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_cache_subcommand_parses(self):
        args = build_parser().parse_args(["cache", "info"])
        assert args.cache_command == "info"
        args = build_parser().parse_args(
            ["cache", "clear", "--cache-dir", "/tmp/x"]
        )
        assert args.cache_command == "clear"
        assert args.cache_dir == "/tmp/x"

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "nuke"])


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "src2_2" in out

    def test_mttdl_output(self, capsys):
        assert main(["mttdl", "--mttr-days", "3"]) == 0
        out = capsys.readouterr().out
        assert "raid10" in out
        assert "rolo-r" in out

    def test_trace_info(self, capsys):
        assert main(["trace-info", "rsrch_2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "rsrch_2" in out
        assert "records=" in out

    def test_run_fig9(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["run", "fig9", "--out", str(out_file)]) == 0
        assert "MTTDL" in capsys.readouterr().out
        assert "MTTDL" in out_file.read_text()

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "rolo-p",
                    "rsrch_2",
                    "--scale",
                    "0.02",
                    "--pairs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "requests=" in out
        assert "rotations=" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_run_rejects_bad_jobs(self, capsys):
        assert main(["run", "fig9", "--jobs", "0"]) == 2


class TestCacheCommands:
    RUN_ARGS = [
        "run",
        "fig10",
        "--scale",
        "0.004",
        "--pairs",
        "2",
        "--jobs",
        "1",
    ]

    def test_cache_info_empty(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:         0" in out

    def test_warm_cache_performs_zero_simulations(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.RUN_ARGS + ["--cache-dir", cache_dir]) == 0
        cold_out = capsys.readouterr().out
        assert "computed=10" in cold_out  # 5 schemes x 2 workloads
        clear_cache()  # fresh interpreter state; only the disk cache warms
        assert main(self.RUN_ARGS + ["--cache-dir", cache_dir]) == 0
        warm_out = capsys.readouterr().out
        assert "computed=0" in warm_out
        assert "cached=10" in warm_out

        def rows(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("[cells]")
            ]

        assert rows(warm_out) == rows(cold_out)

    def test_no_cache_flag_skips_persistence(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(self.RUN_ARGS + ["--cache-dir", cache_dir, "--no-cache"])
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries:         0" in capsys.readouterr().out

    def test_cache_clear_removes_entries(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.RUN_ARGS + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 10" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries:         0" in capsys.readouterr().out


class TestObservabilityCommands:
    SIM_ARGS = [
        "simulate",
        "rolo-p",
        "rsrch_2",
        "--scale",
        "0.004",
        "--pairs",
        "2",
    ]

    def test_simulate_flag_parsing(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "rolo-p",
                "src2_2",
                "--trace",
                "out.json",
                "--trace-format",
                "jsonl",
                "--sample-interval",
                "0.5",
                "--samples",
                "s.csv",
                "--profile",
            ]
        )
        assert args.trace == "out.json"
        assert args.trace_format == "jsonl"
        assert args.sample_interval == 0.5
        assert args.samples == "s.csv"
        assert args.profile is True

    def test_simulate_defaults_stay_unobserved(self):
        args = build_parser().parse_args(["simulate", "rolo-p", "src2_2"])
        assert args.trace is None
        assert args.sample_interval is None
        assert args.profile is False

    def test_simulate_with_trace_and_samples(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert (
            main(self.SIM_ARGS + ["--trace", str(trace_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "requests=" in out
        assert "[trace] wrote" in out
        import json as _json

        doc = _json.loads(trace_path.read_text())
        assert doc["traceEvents"]

    def test_simulate_jsonl_by_extension(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(self.SIM_ARGS + ["--trace", str(trace_path)]) == 0
        assert "(jsonl)" in capsys.readouterr().out
        first_line = trace_path.read_text().splitlines()[0]
        import json as _json

        assert "ts" in _json.loads(first_line)

    def test_simulate_sampling_and_profile(self, capsys, tmp_path):
        csv_path = tmp_path / "samples.csv"
        assert (
            main(
                self.SIM_ARGS
                + [
                    "--sample-interval",
                    "5",
                    "--samples",
                    str(csv_path),
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[samples] wrote" in out
        assert "rate=" in out
        assert csv_path.read_text().startswith("ts,")

    def test_simulate_sample_summary_without_path(self, capsys):
        assert main(self.SIM_ARGS + ["--sample-interval", "10"]) == 0
        assert "peak_queue=" in capsys.readouterr().out

    @pytest.mark.parametrize("interval", ["nan", "inf", "0", "-1"])
    def test_simulate_rejects_bad_sample_interval(
        self, capsys, tmp_path, interval
    ):
        samples = tmp_path / "s.csv"
        args = ["--sample-interval", interval, "--samples", str(samples)]
        assert main(self.SIM_ARGS + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: --sample-interval")
        assert not samples.exists()

    def test_trace_summarize(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(self.SIM_ARGS + ["--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "events by category" in out
        assert "power-state residency" in out

    def test_run_profile_reports_cells(self, capsys, tmp_path):
        result_cache.configure(directory=str(tmp_path), enabled=True)
        assert (
            main(
                [
                    "run",
                    "fig10",
                    "--scale",
                    "0.004",
                    "--pairs",
                    "2",
                    "--jobs",
                    "1",
                    "--profile",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[profile] per-cell timing" in out
        assert "total:" in out

    def test_run_profile_keeps_metrics_out(self, capsys, tmp_path):
        # --profile and --metrics-out combine: the sweep is metered and
        # profiled in one pass.
        metrics_path = tmp_path / "m.jsonl"
        argv = [
            "run", "fig10", "--scale", "0.004", "--pairs", "2",
            "--jobs", "1", "--profile", "--no-cache",
            "--metrics-out", str(metrics_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[profile] per-cell timing" in out
        assert metrics_path.is_file()
        assert metrics_path.read_text().strip()
        assert "[metrics] wrote" in out


class TestMetricsCommands:
    def test_metrics_flag_parsing(self):
        args = build_parser().parse_args(
            ["simulate", "rolo-p", "wdev_0", "--metrics", "m.prom"]
        )
        assert args.metrics == "m.prom"
        assert args.metrics_format == "auto"
        args = build_parser().parse_args(
            ["run", "fig10", "--progress", "--metrics-out", "m.jsonl"]
        )
        assert args.progress is True
        assert args.metrics_out == "m.jsonl"
        args = build_parser().parse_args(["top", "m.jsonl"])
        assert args.file == "m.jsonl"

    SIM = ["simulate", "rolo-p", "wdev_0", "--scale", "0.02", "--pairs", "2"]

    def test_simulate_metrics_prometheus(self, capsys, tmp_path):
        out_path = tmp_path / "run.prom"
        assert main(self.SIM + ["--metrics", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "requests=" in out
        assert "p95=" in out and "p99=" in out
        text = out_path.read_text(encoding="utf-8")
        assert "# TYPE" in text
        from repro.obs.metrics import lint_prometheus

        assert lint_prometheus(text) == []

    def test_simulate_metrics_jsonl_then_top(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        assert main(self.SIM + ["--metrics", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["top", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "sim_events_total" in out
        assert "request_latency_seconds" in out

    def test_simulate_metrics_combines_with_observers(self, capsys, tmp_path):
        # One run writes the snapshot, the trace and the spans; metering
        # alongside the tracers counts exactly what metering alone does.
        from repro.obs.metrics import read_snapshot

        alone = tmp_path / "alone.jsonl"
        assert main(self.SIM + ["--metrics", str(alone)]) == 0
        alone_out = capsys.readouterr().out
        both = tmp_path / "both.jsonl"
        spans = tmp_path / "spans.jsonl"
        trace = tmp_path / "trace.json"
        assert main(
            self.SIM
            + ["--metrics", str(both), "--spans", str(spans),
               "--trace", str(trace), "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "[spans] wrote" in out and "[trace] wrote" in out
        assert "requests attributed" in out
        assert out.splitlines()[:2] == alone_out.splitlines()[:2]

        def counters(path):
            data = read_snapshot(str(path)).to_dict()["families"]
            return {
                name: family
                for name, family in data.items()
                if family["kind"] == "counter"
            }

        assert counters(both) == counters(alone)
        assert counters(both)

    def test_top_missing_file(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope.jsonl")]) == 2

    def test_cache_info_reports_shm_segments(self, capsys, tmp_path):
        assert (
            main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        )
        assert "shm segments" in capsys.readouterr().out

    def test_report_command_markdown(self, capsys, tmp_path):
        out_path = tmp_path / "report.md"
        assert (
            main(
                [
                    "report",
                    "--schemes",
                    "raid10,rolo-p",
                    "--workloads",
                    "wdev_0",
                    "--scale",
                    "0.01",
                    "--pairs",
                    "2",
                    "--no-cache",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        text = out_path.read_text(encoding="utf-8")
        assert "p95 ms" in text
        assert "Power-state residency" in text


class TestFaultCommands:
    """A schedule the scheme cannot run is one ``error:`` line, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["raid10", "src2_2", "--spec", "bogus@5"],
                "error: unknown fault spec 'bogus@5'\n",
            ),
            (
                ["raid10", "src2_2", "--spec", "fail@5:Q9"],
                "error: 'Q9' is not a member disk of RAID10\n",
            ),
            (
                ["raid5", "src2_2", "--spec", "fail@5:D0:norebuild",
                 "--scale", "0.004", "--pairs", "2"],
                "error: RAID5 cannot fail D0: RAID5 degraded mode",
            ),
            (
                ["raid10", "src2_2", "--spec", "slow@1:M0:nanx10"],
                "error: slowdown factor must be finite and at least 1 in "
                "'slow@1:M0:nanx10'\n",
            ),
        ],
        ids=["bad-spec", "unknown-disk", "parity-failure", "bad-slowdown"],
    )
    def test_inject_reports_schedule_errors(self, capsys, argv, message):
        assert main(["faults", "inject", *argv, "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_campaign_reports_schedule_errors(self, capsys, jobs):
        argv = [
            "faults", "campaign", "--schemes", "rolo-5",
            "--workloads", "web_1", "--times", "5", "--disks", "D0",
            "--scale", "0.004", "--pairs", "2", "--jobs", jobs,
            "--no-cache",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: RoLo-5 cannot fail D0: ")

    def test_campaign_reports_bad_fault_times(self, capsys):
        argv = [
            "faults", "campaign", "--schemes", "raid10",
            "--workloads", "wdev_0", "--times", "abc", "--disks", "M0",
            "--no-cache",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: --times takes comma-separated seconds, not 'abc'\n"
        )
