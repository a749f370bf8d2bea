"""Seedable scenario fuzzer with greedy shrinking.

A :class:`Scenario` is one randomized verification run: a scheme, a
workload preset truncated to ``n_requests``, an array size, and a fault
spec (possibly empty) drawn from :mod:`repro.faults.schedule`'s random
generators.  :func:`run_scenario` replays it with a lockstep
:class:`~repro.verify.ReferenceModel` and a runtime
:class:`~repro.verify.InvariantChecker` attached and reports every
violation either finds, plus the inherited oracle verdict.

:func:`run_fuzz` executes a seeded batch of scenarios through the
experiment matrix's own sweep
(:func:`~repro.experiments.parallel.execute_cells`): the same two-layer
caching (in-process memo + persistent result cache) and shared-memory
trace fan-out.  Each distinct ``(workload, scale, seed)`` trace is
published once and every scenario truncates its own prefix in the
worker, so big sweeps stay cheap and serial/parallel/warm-cache results
are bit-identical.

A failing scenario is minimized by :func:`shrink`: a greedy fixpoint over
candidates that halve/decrement the request prefix and drop fault events
one at a time, keeping a candidate only while it still fails.  The result
is written by :func:`write_artifact` as a JSON reproducer embedding the
scenario, the violations, and the full oracle snapshot, replayable with
``rolo verify repro FILE``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.core import ArrayConfig, RAID5_SCHEMES, default_config
from repro.core.metrics import RunMetrics
from repro.experiments import runner
from repro.faults.injector import run_faulted
from repro.faults.schedule import FaultSchedule
from repro.traces.compiled import CompiledTrace, truncate_trace
from repro.traces.workloads import build_workload_trace
from repro.verify.invariants import InvariantChecker
from repro.verify.reference import ReferenceModel

#: Bump when scenario semantics or the verify payload schema change; the
#: cache folds it into every key, unreachable-stale like the trace format.
VERIFY_SCHEMA_VERSION = 1

#: Mirrored schemes the fuzzer draws from (parity schemes refuse
#: fail-stop, having no degraded mode, so the clean parity tests cover
#: them).
FUZZ_SCHEMES: Tuple[str, ...] = (
    "raid10", "graid", "rolo-p", "rolo-r", "rolo-e"
)

#: (workload, scale) presets: small prefixes of the paper's traces.
FUZZ_WORKLOADS: Tuple[Tuple[str, float], ...] = (
    ("src2_2", 0.01),
    ("web_1", 0.02),
    ("rsrch_2", 0.02),
    ("hm_1", 0.02),
)

#: In-process memo of full (untruncated) workload traces.
_TRACES: Dict[Tuple, CompiledTrace] = {}

#: Drops completed scenarios, which share the experiment cells' memo.
clear_memo = runner.clear_cache


def _full_trace(workload: str, scale: float, seed: int) -> CompiledTrace:
    key = (workload, scale, seed)
    trace = _TRACES.get(key)
    if trace is None:
        trace = build_workload_trace(workload, scale=scale, seed=seed)
        _TRACES[key] = trace
    return trace


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Scenario:
    """One randomized verification run, JSON round-trippable."""

    scheme: str
    workload: str
    scale: float
    n_pairs: int
    seed: int
    #: Request-prefix length; ``None`` replays the whole trace.
    n_requests: Optional[int]
    #: ``FaultSchedule`` spec string; empty means a clean run.
    fault_spec: str = ""

    def key(self) -> Tuple:
        return (
            self.scheme,
            self.workload,
            self.scale,
            self.n_pairs,
            self.seed,
            self.n_requests,
            self.fault_spec,
        )

    def label(self) -> str:
        fault = f" + [{self.fault_spec}]" if self.fault_spec else ""
        return (
            f"{self.scheme}/{self.workload}@{self.scale:g}"
            f" x{self.n_requests} pairs={self.n_pairs}"
            f" seed={self.seed}{fault}"
        )

    def slug(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        return f"{self.scheme}-{self.workload}-{digest[:10]}"

    def schedule(self) -> FaultSchedule:
        # parse("") raises by design; a clean run is the empty schedule.
        if not self.fault_spec:
            return FaultSchedule(())
        return FaultSchedule.parse(self.fault_spec)

    def resolve_config(self):
        return default_config(self.scheme, self.n_pairs, self.scale)

    def build_trace(self) -> CompiledTrace:
        return _full_trace(self.workload, self.scale, self.seed)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        return cls(
            scheme=data["scheme"],
            workload=data["workload"],
            scale=data["scale"],
            n_pairs=data["n_pairs"],
            seed=data["seed"],
            n_requests=data["n_requests"],
            fault_spec=data.get("fault_spec", ""),
        )


def random_scenario(
    rng: random.Random,
    schemes: Tuple[str, ...] = FUZZ_SCHEMES,
) -> Scenario:
    """Draw one scenario from the scheme x workload x fault space."""
    scheme = rng.choice(schemes)
    workload, scale = rng.choice(FUZZ_WORKLOADS)
    n_pairs = rng.choice((2, 3, 4))
    seed = rng.choice((8, 42, 1234))
    n_requests = rng.randrange(30, 181)
    fault_spec = ""
    kind = rng.choice(("clean", "clean", "fail", "fail", "soup"))
    if kind != "clean" and scheme not in RAID5_SCHEMES:
        duration = truncate_trace(
            _full_trace(workload, scale, seed), n_requests
        ).duration
        if duration > 0.5:
            disks = [f"P{i}" for i in range(n_pairs)] + [
                f"M{i}" for i in range(n_pairs)
            ]
            t_min = 0.1 * duration
            t_max = 0.9 * duration
            if kind == "fail":
                schedule = FaultSchedule.random_single_failure(
                    rng, disks, t_min, t_max, rebuild=True
                )
            else:
                config = ArrayConfig(n_pairs=n_pairs).scaled(scale)
                schedule = FaultSchedule.random_soup(
                    rng,
                    disks,
                    t_min,
                    t_max,
                    n_slowdowns=1,
                    n_lse=1,
                    data_capacity_bytes=config.data_capacity_bytes,
                )
            fault_spec = schedule.spec()
    return Scenario(
        scheme=scheme,
        workload=workload,
        scale=scale,
        n_pairs=n_pairs,
        seed=seed,
        n_requests=n_requests,
        fault_spec=fault_spec,
    )


def generate_scenarios(n_scenarios: int, seed: int) -> List[Scenario]:
    rng = random.Random(seed)
    return [random_scenario(rng) for _ in range(n_scenarios)]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclasses.dataclass
class VerifyResult:
    """Outcome of one verified scenario run, JSON round-trippable."""

    scenario: Scenario
    ok: bool
    violations: List[Dict[str, Any]]
    consistent: bool
    lost_blocks: int
    oracle_checks: int
    reads_checked: int
    invariant_sweeps: int
    metrics: RunMetrics
    oracle: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "ok": self.ok,
            "violations": self.violations,
            "consistent": self.consistent,
            "lost_blocks": self.lost_blocks,
            "oracle_checks": self.oracle_checks,
            "reads_checked": self.reads_checked,
            "invariant_sweeps": self.invariant_sweeps,
            "metrics": self.metrics.to_dict(),
            "oracle": self.oracle,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerifyResult":
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            ok=data["ok"],
            violations=data["violations"],
            consistent=data["consistent"],
            lost_blocks=data["lost_blocks"],
            oracle_checks=data["oracle_checks"],
            reads_checked=data["reads_checked"],
            invariant_sweeps=data["invariant_sweeps"],
            metrics=RunMetrics.from_dict(data["metrics"]),
            oracle=data.get("oracle"),
        )


def run_scenario(
    scenario: Scenario, trace=None, registry=None
) -> VerifyResult:
    """Replay one scenario with the full verification harness attached.

    ``trace`` substitutes a shared-memory attachment for the full
    workload trace (the scenario's prefix is cut here either way);
    ``registry`` optionally meters the run.  Both observe only, so the
    simulation stays byte-identical to an unverified run.
    """
    if trace is None:
        trace = scenario.build_trace()
    prefix = truncate_trace(trace, scenario.n_requests)
    reference = ReferenceModel(trace=prefix)
    checker = InvariantChecker(registry=registry)
    result = run_faulted(
        scenario.scheme,
        scenario.resolve_config(),
        prefix,
        scenario.schedule(),
        registry=registry,
        oracle=reference,
        checker=checker,
    )
    violations = list(reference.violations) + list(checker.violations)
    return VerifyResult(
        scenario=scenario,
        ok=result.consistent and not violations,
        violations=violations,
        consistent=result.consistent,
        lost_blocks=result.lost_blocks_total,
        oracle_checks=len(result.checks),
        reads_checked=reference.reads_checked,
        invariant_sweeps=checker.checks_run,
        metrics=result.metrics,
        oracle=result.oracle,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class VerifyCell:
    """A scenario as a sweep cell: cache key + shared-trace identity."""

    scenario: Scenario

    result_type: ClassVar[type] = VerifyResult

    def key(self) -> Tuple:
        return ("verify", VERIFY_SCHEMA_VERSION, self.scenario.key())

    def label(self) -> str:
        return self.scenario.label()

    def trace_key(self) -> Tuple:
        s = self.scenario
        return ("workload", s.workload, s.scale, s.seed)

    def build_trace(self) -> CompiledTrace:
        return self.scenario.build_trace()

    def compute(self, trace=None, registry=None) -> Dict[str, Any]:
        """Run uncached; return ``{"result": VerifyResult.to_dict()}``."""
        result = run_scenario(self.scenario, trace=trace, registry=registry)
        return {"result": result.to_dict()}


def run_fuzz(
    n_scenarios: int,
    seed: int = 8,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    scenarios: Optional[List[Scenario]] = None,
) -> List[VerifyResult]:
    """Run a seeded scenario batch; results in generation order.

    Uses the in-process memo + persistent result cache and, with
    ``jobs > 1``, the locality-aware shared-trace pool — outputs are
    bit-identical across serial, parallel, and warm-cache paths.
    """
    from repro.experiments.parallel import execute_cells

    if scenarios is None:
        scenarios = generate_scenarios(n_scenarios, seed)
    return execute_cells(
        [VerifyCell(s) for s in scenarios], jobs=jobs, progress=progress
    ).results


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _shrink_candidates(scenario: Scenario):
    n = scenario.n_requests
    if n is not None and n > 1:
        for cand in (n // 2, (3 * n) // 4, n - 1):
            if 0 < cand < n:
                yield dataclasses.replace(scenario, n_requests=cand)
    if scenario.fault_spec:
        events = scenario.schedule().events
        for drop in range(len(events)):
            remaining = FaultSchedule(
                tuple(e for i, e in enumerate(events) if i != drop)
            )
            yield dataclasses.replace(
                scenario, fault_spec=remaining.spec()
            )


def shrink(
    scenario: Scenario,
    is_failing: Optional[Callable[[Scenario], bool]] = None,
    max_attempts: int = 48,
) -> Scenario:
    """Greedily minimize a failing scenario while it keeps failing.

    Candidates shorten the request prefix (halve, three-quarters,
    decrement — which also shortens the horizon) and drop fault events
    one at a time; each accepted candidate restarts the pass, so the
    result is a local fixpoint within the attempt budget.  ``is_failing``
    defaults to re-running the scenario through the full harness.
    """
    if is_failing is None:
        def is_failing(s: Scenario) -> bool:
            return not run_scenario(s).ok

    current = scenario
    attempts = 0
    tried = {current.key()}
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _shrink_candidates(current):
            if attempts >= max_attempts:
                break
            if candidate.key() in tried:
                continue
            tried.add(candidate.key())
            attempts += 1
            if is_failing(candidate):
                current = candidate
                progressed = True
                break
    return current


# ----------------------------------------------------------------------
# Reproducer artifacts
# ----------------------------------------------------------------------
def write_artifact(
    directory, scenario: Scenario, result: VerifyResult
) -> Path:
    """Write a ready-to-run JSON reproducer; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"repro-{scenario.slug()}.json"
    payload = {
        "version": VERIFY_SCHEMA_VERSION,
        "scenario": scenario.to_dict(),
        "ok": result.ok,
        "violations": result.violations,
        "oracle": result.oracle,
        "command": f"rolo verify repro {path}",
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_scenario(path) -> Scenario:
    """Load a scenario from an artifact (or bare scenario) JSON file."""
    data = json.loads(Path(path).read_text())
    if "scenario" in data:
        data = data["scenario"]
    return Scenario.from_dict(data)


__all__ = [
    "FUZZ_SCHEMES",
    "FUZZ_WORKLOADS",
    "Scenario",
    "VerifyCell",
    "VerifyResult",
    "clear_memo",
    "generate_scenarios",
    "load_scenario",
    "random_scenario",
    "run_fuzz",
    "run_scenario",
    "shrink",
    "write_artifact",
]
