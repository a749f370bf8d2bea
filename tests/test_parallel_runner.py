"""Parallel-vs-serial determinism of the experiment runner.

These tests pin the PR's core invariant: running cells on a process pool
(or reading them back from a warm persistent cache) produces bit-for-bit
the same ``RunMetrics`` as the serial in-process path.
"""

import os
import time

import pytest

from repro.experiments import cache as result_cache
from repro.experiments import clear_cache, get_experiment
from repro.experiments.parallel import default_jobs, execute_cells
from repro.obs.metrics import MetricsRegistry
from repro.experiments.runner import (
    Cell,
    reset_run_stats,
    run_scheme_set_seeds,
    run_stats,
    workload_cell,
)

SCHEMES = ("raid10", "rolo-p")
SEEDS = (42, 43)
SCALE = 0.004
N_PAIRS = 2
WORKLOAD = "rsrch_2"


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    reset_run_stats()
    result_cache.configure(enabled=False)
    yield
    result_cache.configure(enabled=False)
    clear_cache()
    reset_run_stats()


def _as_dicts(results):
    return {
        scheme: [m.to_dict() for m in metrics_list]
        for scheme, metrics_list in results.items()
    }


class TestParallelDeterminism:
    def test_jobs2_identical_to_serial(self):
        serial = run_scheme_set_seeds(
            WORKLOAD, SCHEMES, SEEDS, jobs=1, scale=SCALE, n_pairs=N_PAIRS
        )
        serial_dicts = _as_dicts(serial)
        clear_cache()
        reset_run_stats()
        parallel = run_scheme_set_seeds(
            WORKLOAD, SCHEMES, SEEDS, jobs=2, scale=SCALE, n_pairs=N_PAIRS
        )
        # Every cell was computed by a worker; the assembly loop only read
        # the memo back.
        assert run_stats()["computed"] == 0
        assert run_stats()["memory_hits"] == len(SCHEMES) * len(SEEDS)
        assert _as_dicts(parallel) == serial_dicts

    def test_execute_cells_counts_and_dedupes(self):
        cells = [
            workload_cell(s, WORKLOAD, scale=SCALE, n_pairs=N_PAIRS)
            for s in SCHEMES
        ]
        stats = execute_cells(cells + cells, jobs=2)
        assert stats.total == 4
        assert stats.unique == 2
        assert stats.cached == 0
        assert stats.computed == 2
        again = execute_cells(cells, jobs=2)
        assert again.cached == 2
        assert again.computed == 0

    def test_jobs1_defers_to_serial_path(self):
        from repro.experiments.runner import lookup_cached

        cells = [
            workload_cell(s, WORKLOAD, scale=SCALE, n_pairs=N_PAIRS)
            for s in SCHEMES
        ]
        cells.append(cells[0])  # a duplicate is computed once
        expected = [c.execute().to_dict() for c in cells]
        stats = execute_cells(cells, jobs=1)
        # Computed serially, in process, and installed in the memo.
        assert stats.computed == len(SCHEMES)
        assert run_stats()["computed"] == len(SCHEMES)
        assert [r.to_dict() for r in stats.results] == expected
        assert stats.results[0] is stats.results[-1]
        assert all(lookup_cached(c.key()) is not None for c in cells)


class TestDefaultJobs:
    def test_respects_cpu_affinity_mask(self, monkeypatch):
        # A container pinned to 2 of 64 cores must start 2 workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5}, raising=False
        )
        assert default_jobs() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_jobs() == 6

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_jobs() == 1


class TestWarmCacheDeterminism:
    def test_warm_persistent_cache_equals_cold_run(self, tmp_path):
        result_cache.configure(str(tmp_path / "cache"))
        cold = run_scheme_set_seeds(
            WORKLOAD, SCHEMES, SEEDS, scale=SCALE, n_pairs=N_PAIRS
        )
        cold_dicts = _as_dicts(cold)
        assert run_stats()["computed"] == len(SCHEMES) * len(SEEDS)
        clear_cache()
        reset_run_stats()
        warm = run_scheme_set_seeds(
            WORKLOAD, SCHEMES, SEEDS, scale=SCALE, n_pairs=N_PAIRS
        )
        stats = run_stats()
        assert stats["computed"] == 0
        assert stats["disk_hits"] == len(SCHEMES) * len(SEEDS)
        assert _as_dicts(warm) == cold_dicts

    def test_one_cache_serves_every_kind(self, tmp_path, monkeypatch):
        """Experiment, fault and verification cells share one memo and one
        disk layout: a warm rerun at jobs=1 computes nothing and returns
        what the cold jobs=2 sweep did, byte for byte."""
        import json

        from repro.faults import build_campaign, run_campaign
        from repro.faults.campaign import FaultCell
        from repro.verify import fuzzer

        result_cache.configure(str(tmp_path / "cache"))
        campaign = build_campaign(
            schemes=SCHEMES,
            workloads=(WORKLOAD,),
            fault_times=(5.0,),
            disks=("M0",),
            scale=SCALE,
            n_pairs=N_PAIRS,
        )
        scenarios = fuzzer.generate_scenarios(6, seed=8)
        cells = [
            workload_cell(s, WORKLOAD, scale=SCALE, n_pairs=N_PAIRS)
            for s in SCHEMES
        ]

        def sweep(jobs):
            results = (
                run_campaign(campaign, jobs=jobs)
                + fuzzer.run_fuzz(6, scenarios=scenarios, jobs=jobs)
                + execute_cells(cells, jobs=jobs).results
            )
            return [json.dumps(r.to_dict(), sort_keys=True) for r in results]

        cold = sweep(2)
        clear_cache()
        reset_run_stats()

        def refuse(self, trace=None, registry=None):
            raise AssertionError(f"{self.label()} computed on a warm cache")

        for kind in (Cell, FaultCell, fuzzer.VerifyCell):
            monkeypatch.setattr(kind, "compute", refuse)
        assert sweep(1) == cold
        unique = (
            len(campaign) + len({s.key() for s in scenarios}) + len(cells)
        )
        assert run_stats()["disk_hits"] == unique
        assert run_stats()["computed"] == 0


class TestCellEnumeration:
    def test_fig10_cells_cover_the_run(self):
        cells = get_experiment("fig10").cells(
            scale=SCALE, n_pairs=N_PAIRS, workloads=(WORKLOAD,), seed=42
        )
        assert len(cells) == 5  # all five schemes on one workload
        keys = {c.key() for c in cells}
        assert len(keys) == 5
        # Prewarm, then the experiment itself must not simulate anything.
        execute_cells(cells, jobs=2)
        reset_run_stats()
        report = get_experiment("fig10").run(
            scale=SCALE, n_pairs=N_PAIRS, workloads=(WORKLOAD,), seed=42
        )
        assert run_stats()["computed"] == 0
        assert report.tables[0].rows

    def test_tables_share_fig10_cells(self):
        fig10_keys = {
            c.key()
            for c in get_experiment("fig10").cells(scale=SCALE, seed=42)
        }
        for table_id in ("table1", "table4", "table5"):
            table_keys = {
                c.key()
                for c in get_experiment(table_id).cells(
                    scale=SCALE, seed=42
                )
            }
            assert table_keys <= fig10_keys

    def test_analytical_experiment_has_no_cells(self):
        assert get_experiment("fig9").cells(seed=42) == []

    def test_every_enumerator_accepts_cli_kwargs(self):
        """cells(seed=..., scale=...) must never raise for any experiment."""
        from repro.experiments import list_experiments

        for exp in list_experiments():
            cells = exp.cells(seed=42, scale=0.01)
            assert isinstance(cells, list)


class TestProfiledExecution:
    def _cells(self):
        return [
            workload_cell(
                scheme, WORKLOAD, scale=SCALE, n_pairs=N_PAIRS, seed=42
            )
            for scheme in SCHEMES
        ]

    def test_profiled_pool_metrics_identical(self):
        cells = self._cells()
        baseline = [c.execute().to_dict() for c in cells]
        clear_cache()
        stats = execute_cells(cells, jobs=2, collect_profiles=True)
        from repro.experiments.runner import lookup_cached

        assert stats.computed == len(cells)
        assert [
            lookup_cached(c.key()).to_dict() for c in cells
        ] == baseline
        report = stats.profiles
        assert report is not None
        assert len(report.cells) == len(cells)
        assert all(p.source == "computed" for p in report.cells)
        assert all(p.events > 0 and p.wall_s > 0 for p in report.cells)
        # Deterministic ordering regardless of pool completion order.
        assert [p.label for p in report.cells] == sorted(
            p.label for p in report.cells
        )

    def test_profiled_serial_computes_in_process(self):
        cells = self._cells()
        stats = execute_cells(cells, jobs=1, collect_profiles=True)
        assert stats.computed == len(cells)
        assert len(stats.profiles.computed) == len(cells)
        # Results were installed: a second pass sees only cached cells.
        again = execute_cells(cells, jobs=1, collect_profiles=True)
        assert again.computed == 0
        assert again.cached == len(cells)
        assert all(p.source == "cached" for p in again.profiles.cells)

    def test_serial_and_pool_profiles_count_the_same_run(self):
        cells = self._cells()
        serial = execute_cells(cells, jobs=1, collect_profiles=True)
        clear_cache()
        pooled = execute_cells(cells, jobs=2, collect_profiles=True)

        def counts(stats):
            return {
                p.label: (p.events, p.sim_time_s)
                for p in stats.profiles.cells
            }

        assert counts(serial) == counts(pooled)
        assert len(counts(serial)) == len(cells)

    def test_profile_window_excludes_trace_build(self, monkeypatch):
        # Pool workers get their trace from the parent, so the serial
        # path must not time trace generation either.
        build = Cell.build_trace

        def slow_build(self):
            time.sleep(1.0)
            return build(self)

        monkeypatch.setattr(Cell, "build_trace", slow_build)
        cell = workload_cell(
            "raid10", WORKLOAD, scale=SCALE, n_pairs=N_PAIRS, seed=42
        )
        stats = execute_cells([cell], jobs=1, collect_profiles=True)
        (profile,) = stats.profiles.computed
        assert 0.0 < profile.wall_s < 1.0

    def test_profiles_combine_with_metrics(self):
        cells = self._cells()
        for jobs in (1, 2):
            clear_cache()
            registry = MetricsRegistry()
            stats = execute_cells(
                cells, jobs=jobs, collect_profiles=True, registry=registry
            )
            assert len(stats.profiles.computed) == len(cells)
            assert registry.get("sim_events_total", scheme="RoLo-P")

    def test_no_profiles_without_flag(self):
        stats = execute_cells(self._cells(), jobs=1)
        assert stats.profiles is None
