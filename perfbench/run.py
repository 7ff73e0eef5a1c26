#!/usr/bin/env python3
"""The vqt benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload sweep|figures|validate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; vqt is imported from its ``src/``.
The run repeats whole rounds of the workload's operations in one process
until ``--seconds`` have passed, checks every output (see checks.py) and
prints, as its last line, {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds (per round), plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh-interpreter imports before the first round, and after every round,
# so the set-up samples span the run like the others.
SETUP_FIRST = 3
SETUP_PER_ROUND = 2
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import vqt, vqt.cli\n"
    "t1 = time.perf_counter()\n"
    "assert vqt.__file__.startswith(sys.argv[1]), vqt.__file__\n"
    "print(repr(t1 - t0))\n"
)

# name -> unit; how each is sampled is in end_to_end()
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_points_per_s": "points/s",
    "solve_ms": "ms",
    "figure_ms": "ms",
    "verify_ms": "ms",
    "sim_arrivals_per_s": "arrivals/s",
}

# name -> (span, field of its per-round table, unit)
PER_LAYER = {
    "model.build_matrices.calls": ("model.build_matrices", "calls", "count"),
    "model.build_matrices.ms": ("model.build_matrices", "ms", "ms"),
    "spectral.build_spectral.calls": ("spectral.build_spectral", "calls", "count"),
    "spectral.build_spectral.ms": ("spectral.build_spectral", "ms", "ms"),
    "solver.particular_matrices.ms": ("solver.particular_matrices", "ms", "ms"),
    "solver.h_chain.ms": ("solver.h_chain", "ms", "ms"),
    "solver.solve.self_ms": ("solver.solve", "self_ms", "ms"),
    "solver.eval_cdf.calls": ("solver.eval_cdf", "calls", "count"),
    "solver.eval_cdf.ms": ("solver.eval_cdf", "ms", "ms"),
    "solver.eval_density.calls": ("solver.eval_density", "calls", "count"),
    "solver.eval_density.ms": ("solver.eval_density", "ms", "ms"),
    "solver.mean_wait.ms": ("solver.mean_wait", "ms", "ms"),
    "solver.scalar_mixture.ms": ("solver.scalar_mixture", "ms", "ms"),
    "solver.verify_solution.self_ms": ("solver.verify_solution", "self_ms", "ms"),
    "numerics.lu_factor.calls": ("numerics.lu_factor", "calls", "count"),
    "numerics.lu_factor.ms": ("numerics.lu_factor", "ms", "ms"),
    "numerics.mat_func.calls": ("numerics.mat_func", "calls", "count"),
    "numerics.mat_func.ms": ("numerics.mat_func", "ms", "ms"),
    "numerics.gauss_panels.calls": ("numerics.gauss_panels", "calls", "count"),
    "numerics.gauss_panels.self_ms": ("numerics.gauss_panels", "self_ms", "ms"),
    "reference.erlang_c.calls": ("reference.erlang_c", "calls", "count"),
    "simulator.arrivals": ("simulator.simulate", "arrivals", "count"),
    "simulator.rng.ms": ("simulator.splitmix64", "ms", "ms"),
    "simulator.simulate.self_ms": ("simulator.simulate", "self_ms", "ms"),
}


def import_vqt():
    """Import vqt from this checkout's src/, and nowhere else."""
    if not (SRC / "vqt" / "__init__.py").is_file():
        sys.exit(f"no vqt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vqt
    import vqt.cli  # noqa: F401  (the CLI is driven in-process)
    if not Path(vqt.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"vqt imported from {vqt.__file__}, not {SRC}")
    return vqt


def measure_setup() -> float:
    """Import time of vqt and vqt.cli in a fresh interpreter, at reference
    speed (see speed.py)."""
    before = speed.reading()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip()) * speed.scale(before, speed.reading())


def count_threads() -> list[int]:
    """Track the most Python threads alive at once (the sweep pool starts some)."""
    peak = [threading.active_count()]
    start = threading.Thread.start

    def counting_start(self):
        start(self)
        peak[0] = max(peak[0], threading.active_count())

    threading.Thread.start = counting_start
    return peak


def run_round(ops) -> list[dict]:
    """One pass over ``ops``.  Each call is timed on the wall clock and
    bracketed by speed readings; its checks run after both."""
    results = []
    before = speed.reading()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:          # a crash is a failed operation, not a dead run
            out, error = None, exc
        elapsed = time.perf_counter() - t0
        after = speed.reading()
        problems, work = [], 0
        try:
            if error is not None:
                raise error
            problems, work = op.check(out), op.work(out)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        results.append({"op": op, "s": elapsed * speed.scale(before, after),
                        "kernel_ms": after, "problems": problems, "work": work})
        before = after
    return results


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    if n < 40:
        return None
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct}", statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return None


def end_to_end(rounds, setup_times) -> dict[str, tuple[float, list[float] | None]]:
    """name -> (value, the samples behind it, if there are several)."""
    flat = [r for results in rounds for r in results]

    def by_label(kind, only_ok=False) -> list[list[dict]]:
        groups = defaultdict(list)
        for r in flat:
            if r["op"].kind == kind and not (only_ok and r["problems"]):
                groups[r["op"].label].append(r)
        return list(groups.values())

    def ms(kind):
        """Mean time of one call over a round's ``kind`` calls, each at its
        median over the run: every input counts, and a call slowed by a
        preemption moves one sample of its input, not the mean."""
        groups = by_label(kind)
        total = sum(statistics.median(r["s"] for r in rs) * len(rs) for rs in groups)
        return (total * 1e3 / sum(len(rs) for rs in groups),
                [r["s"] * 1e3 for rs in groups for r in rs])

    def rate(kind, only_ok):
        """Work per second of a round's ``kind`` calls, each at its median."""
        groups = by_label(kind, only_ok)
        work = sum(statistics.median(r["work"] for r in rs) for rs in groups)
        secs = sum(statistics.median(r["s"] for r in rs) for rs in groups)
        return work / secs, None

    return {
        "setup_s": (statistics.median(setup_times), setup_times),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None),
        # a failed sweep emits no rows and is left out
        "sweep_points_per_s": rate("sweep", only_ok=True),
        "solve_ms": ms("solve"),
        "figure_ms": ms("figure"),
        "verify_ms": ms("verify"),
        # one that exits 4 has still simulated its arrivals
        "sim_arrivals_per_s": rate("validate", only_ok=False),
    }


def per_layer(tables: list[dict], rounds: list[list[dict]], overhead_pct: float) -> dict:
    values = {}
    for metric, (span, field, unit) in PER_LAYER.items():
        values[metric] = (statistics.median(t.get(span, {}).get(field, 0.0) for t in tables), unit)
    values["cli.self_ms"] = (statistics.median(
        sum(row["self_ms"] for name, row in t.items() if name.startswith("cli.")) for t in tables),
        "ms")
    values["cli.sweep.rows"] = (statistics.median(
        sum(r["work"] for r in results if r["op"].kind == "sweep") for results in rounds), "count")
    values["trace.overhead_pct"] = (overhead_pct, "%")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("VQT_THREADS", None)     # the sweep pool sizes itself, as for a user
    # One CPU for the whole run, threads and child processes included, set
    # before numpy starts its threads.  Across two vCPUs of a shared VM the
    # sweep pool's lock hand-offs made its speed follow the other CPU's load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    global speed                            # used by run_round and measure_setup
    import speed
    vqt = import_vqt()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    ops = workloads.build(vqt, args.workload, args.seed)
    setup_times = [measure_setup() for _ in range(SETUP_FIRST)]

    tracer = Tracer(vqt) if args.trace else None
    rounds, traced_rounds, tables, walls = [], [], [], {False: [], True: []}
    peak_threads = count_threads()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or (tracer and len(tables) == 0):
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            results = run_round(ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tables.append(tracer.drain())
            traced_rounds.append(results)
        rounds.append(results)
        walls[traced].append(sum(r["s"] for r in results))
        if not tracer:
            setup_times += [measure_setup() for _ in range(SETUP_PER_ROUND)]

    flat = [r for results in rounds for r in results]
    failed = [r for r in flat if r["problems"]]
    unexpected = []
    seen = set()
    for r in failed:
        fault = r["op"].fault
        known = fault is not None and fault.explains(r["problems"])
        if not known:
            unexpected.append(r)
        if (r["op"].label, known) not in seen:
            seen.add((r["op"].label, known))
            tag = f"known fault: {fault.label}" if known else "UNEXPECTED"
            shown = r["problems"] if known else [p for p in r["problems"]
                                                 if not (fault and fault.explains([p]))]
            print(f"FAILED [{tag}] {r['op'].label}: {shown[0]}")
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops/round={len(ops)} python-threads-peak={peak_threads[0]} "
          f"speed-kernel-median={statistics.median(r['kernel_ms'] for r in flat):.4g}ms "
          f"(times below are at the reference {speed.REFERENCE_MS}ms)")

    if tracer:
        overhead = (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0) * 100
        layer = per_layer(tables, traced_rounds, overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        for name, (v, u) in layer.items():
            print(f"  {name:34s} {v:14.6g} {u}")
    else:
        values = end_to_end(rounds, setup_times)
        metrics = {}
        for name, unit in END_TO_END.items():
            value, samples = values[name]
            line = f"  {name:20s} {value:.6g} {unit}"
            if samples:
                t = tail(samples)
                extra = f" {t[0]}={t[1]:.6g}" if t else ""
                line += f"  (samples: median={statistics.median(samples):.6g}{extra} n={len(samples)})"
            print(line)
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not unexpected, "attempted": len(flat),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
