"""Record the golden RunMetrics digests the benchmark checks cells against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs each named workload (default: all) once per input seed, untraced,
and writes every cell's digest into ``golden.json``, keeping the entries
of workloads not named.  Re-record only when a change is meant to alter
simulated results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import cases
import run


def main(argv) -> int:
    names = argv or list(run.WORKLOADS)
    path = cases.HERE / "golden.json"
    data = {"seeds": cases.GOLDEN_SEEDS, "digests": {}}
    if path.is_file():
        data = json.loads(path.read_text())
    workers = min(2, run.nproc())
    for name in names:
        per_seed = {}
        for seed in range(cases.GOLDEN_SEEDS):
            case = cases.make_case(name, seed, workers)
            tally = cases.Tally({}, record=True)
            case.setup()
            case.reference(tally)
            case.run_round(tally)
            if tally.failures:
                print("\n".join(tally.failures), file=sys.stderr)
                return 1
            per_seed[str(seed)] = tally.golden
            print(f"{name} seed {seed}: {len(tally.golden)} cells",
                  flush=True)
        data["digests"][name] = per_seed
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
