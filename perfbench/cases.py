"""The benchmark's three workloads.

Each case builds its inputs from one seed in :meth:`Case.setup` (trace
generation, outside every timed window), runs a fixed amount of
simulation per :meth:`Case.run_round`, and checks every cell it runs:

* the cell must not raise (``assert_consistent`` raises inside it);
* the sha256 of its ``RunMetrics.to_dict()`` must equal the golden digest
  recorded for this seed in ``golden.json``;
* verification results must be ``ok``;
* metered and span-recorded runs must reproduce the plain run's metrics;
* every attribution's phases must sum to its measured latency (1e-9).

A failed check marks the cell failed; it never stops the run.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import hostspeed
import srcpath  # noqa: F401  (puts src/ on sys.path)
from repro.core.metrics import RunMetrics
from repro.experiments import cache as result_cache
from repro.experiments.runner import Cell, run_cell_observed, workload_cell
from repro.obs import attribution
from repro.verify import fuzzer

HERE = Path(__file__).resolve().parent

#: Inputs come from ``--seed`` modulo this; golden.json holds one set of
#: digests per residue.
GOLDEN_SEEDS = 16

#: The five schemes of Fig. 10, in the paper's order.
FIG10_SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")

_perf = time.perf_counter


def digest(metrics: RunMetrics) -> str:
    """Short sha256 of a run's full metrics dump (exact floats)."""
    text = json.dumps(metrics.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_paper_savings() -> Dict[str, Dict[str, float]]:
    with open(HERE / "paper_fig10a.json") as f:
        return json.load(f)["savings_pct"]


def energy_error_pp(
    energy: Dict[Tuple[str, str], float],
    paper: Dict[str, Dict[str, float]],
) -> float:
    """Mean |simulated - published| Fig. 10(a) saving, in points.

    ``energy`` maps ``(workload, scheme)`` to joules and must hold the
    RAID10 baseline of each workload; every other scheme present that
    the paper publishes a saving for is compared.
    """
    errors = []
    for (workload, scheme), joules in sorted(energy.items()):
        published = paper.get(workload, {}).get(scheme)
        if published is None:
            continue
        saved = 100.0 * (1.0 - joules / energy[(workload, "raid10")])
        errors.append(abs(saved - published))
    if not errors:
        raise ValueError("no published Fig. 10(a) saving to compare with")
    return sum(errors) / len(errors)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Tally:
    """Cells attempted and failed, with the reason of each failure.

    With ``record=True`` golden digests are collected instead of checked.
    """

    def __init__(self, golden: Dict[str, str], record: bool = False):
        self.golden = golden
        self.record = record
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, label: str, body: Callable[[], List[str]]) -> None:
        """Run ``body`` as one cell; it returns the problems it found."""
        self.attempted += 1
        try:
            problems = body()
        except Exception:
            problems = [traceback.format_exc(limit=4).strip()]
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def metrics(self, label: str, metrics: RunMetrics) -> List[str]:
        """Compare against (or record) the golden digest of ``label``."""
        got = digest(metrics)
        if self.record:
            self.golden[label] = got
            return []
        want = self.golden.get(label)
        if want is None:
            return [f"no golden digest for {label}"]
        if got != want:
            return [f"metrics digest {got} != golden {want}"]
        return []


@dataclasses.dataclass
class Round:
    """What one round ran and how long each timed unit took."""

    #: unit label -> (start, end) perf_counter; a unit is what one
    #: timing covers.  ``hostspeed`` probes are taken on either side.
    spans: Dict[str, Tuple[float, float]] = dataclasses.field(
        default_factory=dict
    )
    #: cell (or batch) label -> simulated requests it completed.
    requests: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: cell (or batch) label -> cells (or fuzz scenarios) it completed.
    cells: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Every simulation's metrics (modelled counts, per-request bases).
    runs: List[RunMetrics] = dataclasses.field(default_factory=list)
    #: Workload-specific totals (verification counts, obs step times).
    totals: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )
    #: (workload, scheme) -> joules, for ``energy_err_pp``.
    energy: Dict[Tuple[str, str], float] = dataclasses.field(
        default_factory=dict
    )
    wall: float = 0.0


class Case:
    """One workload: seeded inputs, a round of work, and its checks."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.paper = load_paper_savings()
        #: (workload, scheme) -> joules of untimed reference cells.
        self.reference_energy: Dict[Tuple[str, str], float] = {}
        #: Host-speed samples around every timed unit of this case.
        self.speed = hostspeed.HostSpeed()

    def setup(self) -> None:
        """Build this seed's inputs (timed as ``setup_s``)."""
        raise NotImplementedError

    def reference(self, tally: Tally) -> None:
        """Untimed cells some metric needs besides the round's own."""

    def run_round(self, tally: Tally) -> Round:
        raise NotImplementedError

    def energy_err_pp(self, first: Round) -> float:
        energy = dict(self.reference_energy)
        energy.update(first.energy)
        return energy_error_pp(energy, self.paper)


def _replay(
    cells: List[Cell], traces: Dict[Tuple, Any], tally: Tally, out: Round,
    speed: hostspeed.HostSpeed, prefix: str = "",
) -> None:
    """Replay each cell on its prebuilt trace, timing it as one unit."""
    for cell in cells:
        label = f"{prefix}{cell.scheme}/{cell.workload}"

        def body(cell=cell, label=label) -> List[str]:
            speed.sample()
            started = _perf()
            metrics = cell.execute(trace=traces[cell.trace_key()])
            out.spans[label] = (started, _perf())
            speed.sample()
            out.requests[label] = metrics.requests
            out.cells[label] = 1
            out.runs.append(metrics)
            out.energy[(cell.workload, cell.scheme)] = metrics.total_energy_j
            return tally.metrics(label, metrics)

        tally.check(label, body)


# ----------------------------------------------------------------------
# paper-fig10
# ----------------------------------------------------------------------
class PaperFig10(Case):
    """The five Fig. 10 schemes on the src2_2 and proj_0 replicas, serial.

    Horizons are 0.15x the experiments' default time-scales: every RoLo
    scheme still completes 3+ rotations and destage cycles on src2_2 and
    10+ on proj_0 (rotation counts are scale-invariant).
    """

    name = "paper-fig10"
    SCALES = {"src2_2": 0.015, "proj_0": 0.0045}

    def setup(self) -> None:
        result_cache.configure(enabled=False)
        self.cells = [
            workload_cell(scheme, workload, scale=scale, seed=self.seed)
            for workload, scale in self.SCALES.items()
            for scheme in FIG10_SCHEMES
        ]
        self.traces: Dict[Tuple, Any] = {}
        for cell in self.cells:
            if cell.trace_key() not in self.traces:
                self.traces[cell.trace_key()] = cell.build_trace()

    def run_round(self, tally: Tally) -> Round:
        out = Round()
        started = _perf()
        _replay(self.cells, self.traces, tally, out, self.speed)
        out.wall = _perf() - started
        return out


# ----------------------------------------------------------------------
# verify-fuzz
# ----------------------------------------------------------------------
def fault_kind(scenario: fuzzer.Scenario) -> str:
    """``clean``, ``fail`` (fail + rebuild) or ``soup`` (slowdown + LSE)."""
    spec = scenario.fault_spec
    if not spec:
        return "clean"
    return "fail" if spec.startswith("fail@") else "soup"


class VerifyFuzz(Case):
    """A seeded fuzz batch through ``run_fuzz`` on ``min(2, nproc)`` workers.

    The batch is the first scenarios of each fault kind, in generation
    order, from ``generate_scenarios(POOL, seed)``: a fail + rebuild
    scenario costs ~25x a clean one, so a fixed mix keeps seeds
    comparable.  The mix is close to the fuzzer's own proportions.
    """

    name = "verify-fuzz"
    MIX = {"clean": 106, "fail": 70, "soup": 24}
    POOL = 480
    #: Untimed src2_2 replica at the fuzzer's own src2_2 scale, replayed
    #: by the five Fig. 10 schemes for ``energy_err_pp``.
    REFERENCE_SCALE = 0.01

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed)
        self.workers = workers

    def setup(self) -> None:
        result_cache.configure(enabled=False)
        fuzzer._TRACES.clear()  # a cold trace memo: setup builds them all
        taken: collections.Counter = collections.Counter()
        self.batch: List[fuzzer.Scenario] = []
        for scenario in fuzzer.generate_scenarios(self.POOL, self.seed):
            kind = fault_kind(scenario)
            if taken[kind] < self.MIX[kind]:
                taken[kind] += 1
                self.batch.append(scenario)
        if taken != collections.Counter(self.MIX):
            raise RuntimeError(
                f"seed {self.seed}: a pool of {self.POOL} scenarios holds "
                f"only {dict(taken)} of {self.MIX}"
            )
        for scenario in self.batch:
            scenario.build_trace()

    def reference(self, tally: Tally) -> None:
        cells = [
            workload_cell(
                scheme, "src2_2", scale=self.REFERENCE_SCALE, seed=self.seed
            )
            for scheme in FIG10_SCHEMES
        ]
        out = Round()
        _replay(
            cells, {cells[0].trace_key(): cells[0].build_trace()},
            tally, out, self.speed, prefix="ref:",
        )
        self.reference_energy = out.energy

    def run_round(self, tally: Tally) -> Round:
        out = Round()
        fuzzer.clear_memo()
        self.speed.sample()
        started = _perf()
        try:
            with self.speed.background():
                results = fuzzer.run_fuzz(
                    len(self.batch), scenarios=self.batch, jobs=self.workers
                )
        except Exception:
            reason = traceback.format_exc(limit=4).strip()
            for index in range(len(self.batch)):
                tally.check(f"{index:03d}", lambda: [reason])
            return out
        ended = _perf()
        self.speed.sample()
        out.wall = ended - started
        out.spans["batch"] = (started, ended)
        out.cells["batch"] = len(results)
        out.requests["batch"] = sum(r.metrics.requests for r in results)
        for index, result in enumerate(results):
            label = f"{index:03d}"

            def body(result=result, label=label) -> List[str]:
                problems = tally.metrics(label, result.metrics)
                if not result.ok:
                    problems.append(
                        f"verification failed: {result.violations[:2]}"
                    )
                return problems

            tally.check(label, body)
            out.runs.append(result.metrics)
            out.totals["oracle_checks"] += result.oracle_checks
            out.totals["invariant_sweeps"] += result.invariant_sweeps
            out.totals["reads_checked"] += result.reads_checked
        return out

    def energy_err_pp(self, first: Round) -> float:
        return energy_error_pp(self.reference_energy, self.paper)


# ----------------------------------------------------------------------
# observe-attribute
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, eq=False)
class PrebuiltCell(Cell):
    """A cell whose trace was built in setup.

    ``run_cell_observed`` takes no trace argument and builds the cell's
    trace itself; this keeps generation out of the timed window.
    """

    prebuilt: Any = None

    @classmethod
    def of(cls, cell: Cell, trace: Any) -> "PrebuiltCell":
        fields = {f.name: getattr(cell, f.name)
                  for f in dataclasses.fields(Cell)}
        return cls(prebuilt=trace, **fields)

    def build_trace(self):
        return self.prebuilt


class ObserveAttribute(Case):
    """``rolo simulate --metrics --spans`` + ``rolo report --attribution``.

    RoLo-R (destage-interference culprits) and RoLo-E (spin-up culprits)
    on one src2_2 replica of ~5.5k requests: attribution grows
    superlinearly with trace length, and this horizon keeps one round
    near 7 s.  Each cell runs plain, metered, span-recorded, then
    attribution over the recorded spans.
    """

    name = "observe-attribute"
    SCHEMES = ("rolo-r", "rolo-e")
    SCALE = 0.01

    def setup(self) -> None:
        result_cache.configure(enabled=False)
        self.cells = [
            workload_cell(scheme, "src2_2", scale=self.SCALE, seed=self.seed)
            for scheme in self.SCHEMES
        ]
        self.baseline = workload_cell(
            "raid10", "src2_2", scale=self.SCALE, seed=self.seed
        )
        self.trace = self.baseline.build_trace()
        self.spanned = [PrebuiltCell.of(c, self.trace) for c in self.cells]

    def reference(self, tally: Tally) -> None:
        out = Round()
        _replay(
            [self.baseline], {self.baseline.trace_key(): self.trace},
            tally, out, self.speed, prefix="ref:",
        )
        self.reference_energy = out.energy

    def run_round(self, tally: Tally) -> Round:
        out = Round()
        started = _perf()
        for cell, spanned in zip(self.cells, self.spanned):
            label = f"{cell.scheme}/{cell.workload}"
            tally.check(
                label, lambda: self._observe(cell, spanned, label, tally, out)
            )
        out.wall = _perf() - started
        return out

    def _observe(
        self, cell: Cell, spanned: Cell, label: str, tally: Tally, out: Round
    ) -> List[str]:
        def step(name: str, run: Callable[[], Any]) -> Any:
            """Time one step as its own unit, probed on either side."""
            self.speed.sample()
            started = _perf()
            result = run()
            out.spans[f"{label}:{name}"] = (started, _perf())
            self.speed.sample()
            return result

        def attribute():
            events = observed.tracer.sorted_events()
            attributions = attribution.attribute_events(events)
            return events, attributions, attribution.attribution_summary(
                attributions
            )

        plain = step("plain", lambda: cell.execute(trace=self.trace))
        metered, _ = step(
            "metered", lambda: cell.execute_metered(trace=self.trace)
        )
        observed = step(
            "spanned", lambda: run_cell_observed(spanned, spans=True)
        )
        events, attributions, summary = step("attribute", attribute)

        out.requests[label] = plain.requests
        out.cells[label] = 1
        out.runs += [plain, metered, observed.metrics]
        out.energy[(cell.workload, cell.scheme)] = plain.total_energy_j
        totals = out.totals
        for name in ("plain", "metered", "spanned"):
            started, ended = out.spans[f"{label}:{name}"]
            totals[f"{name}_s"] += ended - started
        totals["span_events"] += len(events)
        totals["attributed"] += len(attributions)

        problems = tally.metrics(label, plain)
        reference = plain.to_dict()
        if metered.to_dict() != reference:
            problems.append("metered run changed RunMetrics")
        if observed.metrics.to_dict() != reference:
            problems.append("span-recorded run changed RunMetrics")
        if summary["count"] != plain.requests:
            problems.append(
                f"attributed {summary['count']} of {plain.requests} requests"
            )
        for att in attributions:
            gap = abs(sum(att.phases.values()) - att.measured)
            if gap > 1e-9:
                problems.append(f"request {att.rid}: phases off by {gap:g}")
                break
        return problems


CASES = {
    PaperFig10.name: PaperFig10,
    VerifyFuzz.name: VerifyFuzz,
    ObserveAttribute.name: ObserveAttribute,
}


def make_case(name: str, seed: int, workers: int) -> Case:
    if name == VerifyFuzz.name:
        return VerifyFuzz(seed, workers)
    return CASES[name](seed)


def load_golden(name: str, seed: int) -> Dict[str, str]:
    path = HERE / "golden.json"
    if not path.is_file():
        return {}
    with open(path) as f:
        return json.load(f)["digests"].get(name, {}).get(str(seed), {})
