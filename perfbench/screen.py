"""Select the GEVO seed pool of a search workload (``SEED_POOL`` in workloads.py).

    python3 perfbench/screen.py --workload gevo-simcov

Runs one traced repetition for each of the first 60 GEVO seeds.  Seeds
with a runaway-loop variant are dropped; of the rest it keeps the 16
seeds whose simulated work is closest to the median: the largest
relative distance over variants simulated, kernel launches and simulated
instructions.  These counts are deterministic, so the selection does not
depend on timing noise.  Prints the per-seed counts and the pool.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import SCRATCH, run_child  # noqa: E402

CANDIDATES = 60
KEEP = 16
#: Wall seconds one screening repetition may take (a runaway seed takes ~30 s).
TIMEOUT_S = 300
_WORK = ("engine.fresh", "gpu.launches", "gpu.sim_instructions")


def _work(workload: str, seed: int) -> dict:
    os.makedirs(os.path.join(ROOT, SCRATCH), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, SCRATCH)) as scratch:
        report = run_child(workload, seed, "traced", scratch, TIMEOUT_S)
    work = {name: report["layers"][name] for name in _WORK}
    work["runaway"] = report["outcome"]["runaway"]
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("gevo-adept", "gevo-simcov"), required=True)
    arguments = parser.parse_args(argv)
    work = {}
    for seed in range(CANDIDATES):
        result = _work(arguments.workload, seed)
        print(seed, json.dumps(result), flush=True)
        if not result["runaway"]:
            work[seed] = result
    medians = {name: statistics.median(entry[name] for entry in work.values())
               for name in _WORK}

    def distance(seed: int) -> float:
        return max(abs(work[seed][name] / medians[name] - 1.0) for name in _WORK)

    pool = sorted(sorted(work, key=distance)[:KEEP])
    print(f"{len(work)} of {CANDIDATES} seeds without runaway variants; "
          f"medians {json.dumps(medians)}; kept within "
          f"{max(distance(seed) for seed in pool):.3f}")
    print("pool", json.dumps(pool))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
