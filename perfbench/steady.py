#!/usr/bin/env python3
"""Steadiness check: do independent sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--workloads sweep,figures]

Runs ``run.py`` (untraced, ``run_seconds`` from BENCHMARK.json) once per
seed, in two sets: set 1 uses seeds 1..N, set 2 seeds 1001..1000+N.  For
every workload and end-to-end metric it prints each set's median and its
spread (distance between the quartiles over the median), and whether each
spread stays within the metric's bound, whether set 2's median is no worse
than set 1's by more than the bound, and whether the share of failed
operations is the same in every run.  Raw results go to perfbench/out/.
Exit code 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="run-to-run agreement of the benchmark")
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    record = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = 1000 * s + i + 1
                result = one_run(workload, seed, bench["run_seconds"])
                runs.append(result)
                print(f"{workload} set {s + 1} seed {seed}: failed {result['failed']}/"
                      f"{result['attempted']} correct={result['correct']}", flush=True)
            sets.append(runs)
        record[workload] = sets
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)} differ or a run is incorrect")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            verdict = []
            if max(spreads) > bound:
                verdict.append("SPREAD")
            if worse_by(medians[0], medians[1], metric["better"]) > bound:
                verdict.append("DRIFT")
            ok = ok and not verdict
            cols = "  ".join(f"median={m:.6g} spread={sp:.4f}" for m, sp in zip(medians, spreads))
            print(f"{workload:9s} {name:20s} {cols}  bound={bound}  "
                  f"{' '.join(verdict) or 'ok'}  (spread/bound {max(spreads) / bound:.2f})")
    (out_dir / "steady.json").write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
