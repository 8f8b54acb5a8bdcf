#!/usr/bin/env python3
"""Sweep the forcing floor of the rotation-driven product system and record
where the pullback limit graph flips between essentially-zero and
essentially-positive.

For q(theta) = eps + (1-eps) sin^2(pi theta) the average of log(2 q) over the
circle, log 2 + 2 log((1 + sqrt(eps)) / 2), crosses 0 at
eps_c = 3 - 2 sqrt(2) ~ 0.171573; below that the limit graph collapses to 0
at almost every node, above it the graph is positive almost everywhere.  The
script reports the observed positive-node fraction per eps as a CSV; the
dichotomy (fractions hugging 0 or 1, nothing in between once converged) is an
observation, not a certified statement.

Usage: python scripts/keller_dichotomy.py [--grid 4096] [--depth 4000]
       [--eps 0.0 0.05 ... ] [--out dichotomy.csv]
"""

import argparse
import csv
import sys

from skewlab.attractor import positive_fraction, pullback_grid
from skewlab.catalog import make_keller


def main() -> int:
    ap = argparse.ArgumentParser(description="pullback positivity sweep")
    ap.add_argument("--grid", type=int, default=4096)
    ap.add_argument("--depth", type=int, default=4000)
    ap.add_argument(
        "--eps", type=float, nargs="*",
        default=[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7],
    )
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    rows = []
    for eps in args.eps:
        system = make_keller(q_spec={"form": "sin-squared", "c": 1.0, "eps": eps})
        res = pullback_grid(system, grid_size=args.grid, depth=args.depth)
        frac = positive_fraction(res.graph)
        rows.append((eps, frac, res.sweeps, res.delta))
        print(
            f"eps={eps:.3f}  positive_fraction={frac:.4f}  "
            f"sweeps={res.sweeps}  delta={res.delta:.2e}",
            file=sys.stderr,
        )

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["eps", "positive_fraction", "sweeps", "delta"])
    writer.writerows(rows)
    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
