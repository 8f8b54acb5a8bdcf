"""Compare benchmark result files, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds run records appended by run.py (one line per run).  For
every workload and metric the table gives the median and quartiles over the
file's runs and the spread, (q3 - q1) / median.  With one file it checks
the spreads against the bounds in BENCHMARK.json.  With two it prints the
change of the median, signed so that positive means worse, and a verdict:
"unresolved" where either side's spread is wider than the bound, "worse"
where the change exceeds the bound, "ok" otherwise.  Per-layer metrics have
no bound; counts are reported as equal or changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            for name, value in rec["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(value)
    return values


def summarize(vals: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (q3 - q1) / median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of the median, positive when `new` is worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path, nargs="?")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = load_runs(args.base)
    new = load_runs(args.new) if args.new else None
    workloads = [w["name"] for w in bench["workloads"]]

    failed = False
    for wl in workloads:
        rows = [(name, spec) for name, spec in specs.items() if (wl, name) in base]
        if not rows:
            continue
        print(f"== {wl}")
        for name, spec in rows:
            bound = spec.get("bound")
            med, q1, q3, spread = summarize(base[(wl, name)])
            line = (f"  {name:40s} {med:12.6g} [{q1:.6g}, {q3:.6g}] "
                    f"n={len(base[(wl, name)])} spread {spread:6.3f}")
            if new is None:
                if bound is not None:
                    ok = spread <= bound
                    failed |= not ok
                    line += f"  bound {bound:.3f} {'ok' if ok else 'TOO WIDE'}"
                print(line)
                continue
            if (wl, name) not in new:
                print(line + "  (missing in new)")
                failed = True
                continue
            nmed, nq1, nq3, nspread = summarize(new[(wl, name)])
            change = worse_by(med, nmed, spec["better"])
            line += (f" | {nmed:12.6g} [{nq1:.6g}, {nq3:.6g}] spread {nspread:6.3f}"
                     f" worse {change:+.3f}")
            if bound is None:
                if spec["unit"] == "count":
                    line += "  equal" if nmed == med else "  changed"
            elif max(spread, nspread) > bound:
                line += f"  bound {bound:.3f} unresolved"
            else:
                verdict = "worse" if change > bound else "ok"
                failed |= verdict == "worse"
                line += f"  bound {bound:.3f} {verdict}"
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
