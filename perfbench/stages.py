#!/usr/bin/env python3
"""Reference stage timings at c = 1, 2, 8, 16 (lam = 0.7c, mu1 = 0.8, mu2 = 1,
k = 0.5), untraced, as medians over repeated calls.

    python3 perfbench/stages.py

The solve stages are timed by calling vqt.solver's public stage functions
one after another; the boundary recursion is vqt.solve minus their sum.
Prints one markdown table (milliseconds unless stated).
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import vqt  # noqa: E402
from vqt import model, solver, spectral  # noqa: E402
from vqt.simulator import SimConfig, simulate  # noqa: E402

REPEATS = 15          # calls per median; 3 for the grid, verify and simulator rows


def timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def stage_row(c: int) -> dict[str, float]:
    p = vqt.validate_params(c, 0.7 * c, 0.8, 1.0, 0.5)
    m = model.build_matrices(p)
    sp = spectral.build_spectral(p, m)
    m0, m1, m2 = solver.particular_matrices(p, m, sp)
    sol = vqt.solve(p)
    grid = np.linspace(0.0, 10 * p.k, 400)
    row = {
        "build_matrices": timed(lambda: model.build_matrices(p), REPEATS),
        "build_spectral": timed(lambda: spectral.build_spectral(p, m), REPEATS),
        "particular_matrices": timed(lambda: solver.particular_matrices(p, m, sp), REPEATS),
        "h_chain": timed(lambda: solver.h_chain(p, m, sp, m0, m1, m2), REPEATS),
        "solve": timed(lambda: vqt.solve(p), REPEATS),
        "eval_cdf (1 pt)": timed(lambda: vqt.eval_cdf(sol, 0.3), REPEATS),
        "eval_cdf (400 pts)": timed(lambda: [vqt.eval_cdf(sol, x) for x in grid], 3),
        "eval_density (400 pts)": timed(lambda: [vqt.eval_density(sol, x) for x in grid], 3),
        "mean_wait": timed(lambda: vqt.mean_wait(sol), REPEATS),
        "verify_solution": timed(lambda: vqt.verify_solution(sol, rng=1), 3),
    }
    stages = ("build_matrices", "build_spectral", "particular_matrices", "h_chain")
    row["boundary recursion"] = row["solve"] - sum(row[s] for s in stages)
    arrivals = 200_000
    sim_ms = timed(lambda: simulate(p, SimConfig(num_arrivals=arrivals, seed=1)), 3)
    row["simulator (M arrivals/s)"] = arrivals / sim_ms / 1e3
    return row


def main() -> int:
    cs = (1, 2, 8, 16)
    rows = {c: stage_row(c) for c in cs}
    print("| stage | " + " | ".join(f"c={c}" for c in cs) + " |")
    print("|---|" + "---|" * len(cs))
    for name in rows[cs[0]]:
        print(f"| {name} | " + " | ".join(f"{rows[c][name]:.3g}" for c in cs) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
