"""Run the benchmark over several seeds and collect the records in one file.

    python3 perfbench/sweep.py --out perfbench/results/base.jsonl [--trace 0]

Runs `run.py` once for every workload in BENCHMARK.json and every seed in
SEEDS, one at a time, for the `run_seconds` in BENCHMARK.json, and appends
each record to `--out`.  The seed set is fixed so that two sweeps always
compare the same inputs.  Feed one such file to compare.py to check
spreads, two to compare commits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    failures = 0
    for name in names:
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(args.out.resolve())]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            ok = proc.returncode == 0 and json.loads(result).get("correct") is True
            failures += not ok
            print(f"{name} seed {seed}: exit {proc.returncode} "
                  f"{'ok' if ok else 'FAILED ' + proc.stderr.strip()[-300:]}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
