"""Count where ``solve_lap`` departs from ``brute_force_lap`` on near-ties.

    python tools/lap_near_ties.py [--checkout ROOT] [SEED ...]

For each seed (default 0) the probe draws 4,000 instances with n = 2..6.
Each is a {0,1,2} matrix plus eps times a {-1,0,1} matrix, with eps
cycling through 1e-13, 1e-11, 5e-10, 2e-9 and 1e-8, so many
permutations tie exactly or nearly. Each instance is solved in both
senses by the solver and by the exhaustive oracle, and each solve that
disagrees is counted once:

- ``perm``: the costs are bit-equal but the permutations differ, so the
  solver returned an optimum that is not the lexicographically first;
- ``cost``: the costs differ, typically in the last bits, where two
  permutations tie in exact arithmetic but not in float sums.

The counts are printed per eps and in total. The package is imported
from ``ROOT/src`` (default: this checkout), so the same seeds can be run
against another checkout. It is a report, not a test or a gate: the
tie-break contract does not yet hold on these inputs, and the counts are
the baseline for making it hold. It needs numpy and the package only;
one seed takes about 5 s.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

INSTANCES = 4000
EPSILONS = (1e-13, 1e-11, 5e-10, 2e-9, 1e-8)
SIZES = (2, 6)  # n is drawn from this inclusive range


def instances(seed: int):
    """(eps, matrix) for the seed's instances, eps cycling through EPSILONS."""
    rng = np.random.default_rng(seed)
    for k in range(INSTANCES):
        eps = EPSILONS[k % len(EPSILONS)]
        n = int(rng.integers(SIZES[0], SIZES[1] + 1))
        base = rng.integers(0, 3, size=(n, n)).astype(float)
        yield eps, base + eps * rng.integers(-1, 2, size=(n, n))


def probe(assignment, seeds) -> dict:
    """{eps: [solves, perm mismatches, cost mismatches]} over the seeds."""
    counts = {eps: [0, 0, 0] for eps in EPSILONS}
    for seed in seeds:
        for eps, a in instances(seed):
            for sense in ("min", "max"):
                fast = assignment.solve_lap(a, sense)
                slow = assignment.brute_force_lap(a, sense)
                row = counts[eps]
                row[0] += 1
                if fast.cost != slow.cost:
                    row[2] += 1
                elif fast.perm != slow.perm:
                    row[1] += 1
    return counts


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout root whose src/ is imported")
    parser.add_argument("seeds", nargs="*", type=int, default=[0])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from setcontrast import assignment

    counts = probe(assignment, args.seeds)
    print(f"{'eps':>8} {'solves':>7} {'perm':>5} {'cost':>5}")
    for eps, (solves, perm, cost) in counts.items():
        print(f"{eps:8.0e} {solves:7d} {perm:5d} {cost:5d}")
    solves, perm, cost = (sum(col) for col in zip(*counts.values()))
    print(f"{'total':>8} {solves:7d} {perm:5d} {cost:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
