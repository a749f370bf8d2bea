"""Differential verification harness.

Three observe-only layers over the simulation stack:

* :class:`ReferenceModel` — a lockstep dict-based shadow block store
  (subclassing the fault oracle) checking read-your-writes, mirror
  agreement at quiesce, and trace coverage;
* :class:`InvariantChecker` — a sampled runtime checker for log-space
  accounting, power-state legality, rotation legality, destage progress,
  and energy monotonicity, sweeping on an engine stride;
* the scenario fuzzer — seedable random scheme x workload x fault
  scenarios (:func:`run_fuzz`), with greedy :func:`shrink`-ing of
  failures into minimal JSON reproducers replayable via
  ``rolo verify repro``.

All three leave the simulation byte-identical to an unverified run.
"""

from repro.verify.fuzzer import (
    FUZZ_SCHEMES,
    FUZZ_WORKLOADS,
    Scenario,
    VerifyCell,
    VerifyResult,
    clear_memo,
    generate_scenarios,
    load_scenario,
    random_scenario,
    run_fuzz,
    run_scenario,
    shrink,
    write_artifact,
)
from repro.verify.invariants import InvariantChecker
from repro.verify.reference import ReferenceModel

__all__ = [
    "FUZZ_SCHEMES",
    "FUZZ_WORKLOADS",
    "InvariantChecker",
    "ReferenceModel",
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
