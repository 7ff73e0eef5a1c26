"""Inputs and operations of the three benchmark workloads.

A workload is a list of operations that one round runs in order; every round
of a run repeats the same list, so the share of failed operations is the same
in every run.  Inputs come from the ``--seed`` through ``random.Random``; vqt
only sees the generated parameters and command lines.

Each round also runs a small fixed companion block of the operation kinds
the workload does not stress, spread through the round, so every run
reports all end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    Params,
    check_solution,
    check_solve_csv,
    check_solve_json,
    check_sweep,
    check_validate,
    check_verify,
)


@dataclass(frozen=True)
class Fault:
    """A fault of the program that makes an operation fail today, and the
    problems it causes: a failure of that operation counts as this fault only
    when every problem found matches ``expected``."""
    label: str
    expected: str                               # regular expression

    def explains(self, problems: list[str]) -> bool:
        return all(re.search(self.expected, p) for p in problems)


ROADMAP_SWEEP = Fault(
    "sweep c=6 lambda=0.2:3.0:600 aborts with Singular at lambda~2.9953 "
    "(_sweep_point catches only ValidationError)",
    r"^exit code 3: .*Singular")
C24_FIGURE = Fault(
    "c=24 lambda=16.799999999999997 exits 0 with component probabilities down to -0.039; "
    "its mixture weights above k reach 2.8e9, and the printed mixture misses the grid by 1e-4",
    r"(component probability|F\(inf\) component) -[0-9.e-]+ below"
    r"|exponential mixture misses the grid")
SATURATED_Z = Fault(
    "validate divides by its 1e-15 half-width floor where every batch saw P(W<=x)=1, "
    "so a correct model gets |z|~1e10 and exit 4",
    r"exit code 4$|every batch saw P\(W<=x\) = 1")

# Relative distance from every collision manifold that generated inputs keep.
# The documented failures sit at 7e-5 to 1.6e-3.
SWEEP_MARGIN = 1e-2
DRAW_MARGIN = 5e-2
# Repeats per round of each companion operation (see companion()).
COMPANION_REPEATS = 6


@dataclass
class Op:
    kind: str                                   # sweep | solve | figure | verify | validate
    label: str
    run: Callable[[], object]                   # the timed call
    check: Callable[[object], list[str]]        # untimed; problems found
    work: Callable[[object], float] = lambda result: 0.0   # rows or arrivals
    fault: Fault | None = None                  # known fault that fails it today


def cli_call(vqt, argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process as ``vqt <argv>``; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vqt.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_problems(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {err.strip()[:200]}"]


# ------------------------------------------------------------------- sweep

def sweep_op(vqt, base: Params, name: str, start: float, stop: float, steps: int,
             metrics: list[str], fault: Fault | None = None) -> Op:
    spec = f"{name}={start!r}:{stop!r}:{steps}"
    argv = ["sweep", *base.argv(), "--sweep", spec, "--metrics", ",".join(metrics)]
    values = [float(v) for v in np.linspace(start, stop, steps)]
    rows = {}

    def check(result):
        code, out, err = result
        problems = _cli_problems(code, err)
        if problems:
            rows["n"] = 0
            return problems
        problems, rows["n"] = check_sweep(base, name, values, metrics, out)
        return problems

    return Op("sweep", f"sweep {base!r} {spec}", lambda: cli_call(vqt, argv), check,
              work=lambda result: rows.get("n", 0), fault=fault)


def _draw_lambda_sweep_mu1(rng: random.Random, base: Params, lams) -> float:
    while True:
        mu1 = round(rng.uniform(0.35, 1.2), 4)
        if all(base.replace("mu1", mu1).replace("lambda", lam).manifold_distance() > SWEEP_MARGIN
               for lam in lams):
            return mu1


def draw_params(rng: random.Random, c: int) -> Params:
    """A threshold parameter set at c servers, clear of every collision manifold."""
    while True:
        mu1 = round(rng.uniform(0.5, 1.5), 4)
        rho = rng.uniform(0.3, 0.85)
        p = Params(c, round(rho * c, 6), mu1, 1.0, round(rng.uniform(0.2, 2.0), 4))
        if p.manifold_distance() > DRAW_MARGIN:
            return p


def sweep_block(vqt, rng: random.Random) -> list[Op]:
    """The sweep workload: mean-versus-load, equal-rate and server-count sweeps."""
    m = ["mean", "p_wait", "cdf@5"]
    load = Params(3, 2.0, 0.3, 0.8, 5.0)          # the paper's mean-versus-load setting
    ops = [sweep_op(vqt, Params(6, 2.0, 0.3, 0.8, 5.0), "lambda", 0.2, 3.0, 600, m,
                    fault=ROADMAP_SWEEP)]
    for mu1 in (0.3, 0.6, 0.9):
        ops.append(sweep_op(vqt, load.replace("mu1", mu1), "lambda", 0.2, 2.3, 40, m))
    lams = np.linspace(0.2, 2.3, 40)
    ops.append(sweep_op(vqt, load.replace("mu1", _draw_lambda_sweep_mu1(rng, load, lams)),
                        "lambda", 0.2, 2.3, 40, m))
    mu = round(rng.uniform(0.5, 2.0), 4)
    ops.append(sweep_op(vqt, Params(4, 1.0, mu, mu, 1.0), "lambda",
                        round(0.4 * mu, 6), round(3.6 * mu, 6), 40, m))   # Erlang-C route
    ops.append(sweep_op(vqt, Params(2, 0.7, 0.8, 1.0, 0.5), "c", 1, 16, 16,
                        ["mean", "p_wait", "cdf@1"]))
    k_base = draw_params(rng, 5)
    x = round(rng.uniform(0.5, 3.0), 3)
    ops.append(sweep_op(vqt, k_base, "k", 0.1, 3.0, 30, ["mean", "p_wait", f"cdf@{x}"]))
    return ops


# ----------------------------------------------------------------- figures

def figure_ops(vqt, p: Params, verify_seed: int | None, fault: Fault | None = None,
               solves: int = 1, json: bool = True) -> list[Op]:
    """vqt.solve, the `vqt solve` CLI in CSV and (if ``json``) JSON, and
    verify_solution (left out when ``verify_seed`` is None)."""
    vp = vqt.validate_params(p.c, p.lam, p.mu1, p.mu2, p.k)
    state: dict = {}
    argv = ["solve", *p.argv(), "--mean", "--mixture"]

    def solve():
        state["sol"] = vqt.solve(vp)
        return state["sol"]

    def check_sol(sol):
        pis = [float(v) for level in sol.pi_levels for v in level]
        return check_solution(p, sol.p_wait_zero, [float(v) for v in sol.f_infinity], pis)

    def check_csv(result):
        code, out, err = result
        state["csv"] = out
        return _cli_problems(code, err) or check_solve_csv(p, out)

    def check_json(result):
        code, out, err = result
        return _cli_problems(code, err) or check_solve_json(p, out, state.get("csv"))

    label = repr(p)
    ops = [Op("solve", f"solve {label}", solve, check_sol, fault=fault) for _ in range(solves)]
    ops.append(Op("figure", f"figure csv {label}", lambda: cli_call(vqt, argv), check_csv,
                  fault=fault))
    if json:
        ops.append(Op("figure", f"figure json {label}",
                      lambda: cli_call(vqt, argv + ["--format", "json"]), check_json, fault=fault))
    if verify_seed is not None:
        ops.append(Op("verify", f"verify {label}",
                      lambda: vqt.verify_solution(state["sol"], rng=verify_seed),
                      lambda rep: check_verify(rep.residuals, rep.warnings)))
    return ops


def figures_block(vqt, rng: random.Random) -> list[Op]:
    fixed = [Params(c, 0.7 * c, 0.8, 1.0, 0.5) for c in (1, 2, 8, 16)]
    fixed.append(Params(2, 2.0, 0.75, 1.12, 0.45))                 # worked two-server case
    fixed += [Params(3, 2.0, mu1, 0.8, 5.0) for mu1 in (0.3, 0.6, 0.67, 0.74)]  # density shapes
    # verify runs on the fixed sets only, at fixed points: its cost moves with
    # both, and a seed-dependent mix would move the median of verify_ms.
    ops = []
    for i, p in enumerate(fixed):
        ops += figure_ops(vqt, p, verify_seed=i)
    # Draws stay at c <= 8: light-load, small-k draws at c = 12 already come
    # out with negative components (see README).
    for c in (4, 6, 8):
        ops += figure_ops(vqt, draw_params(rng, c), verify_seed=None)
    # No verify at c = 24 either: on the degraded solution its adaptive panels
    # keep doubling, and one call takes 0.7 to 11 s depending on its points.
    ops += figure_ops(vqt, Params(24, 16.799999999999997, 0.8, 1.0, 0.5), None,
                      fault=C24_FIGURE)
    return ops


# ---------------------------------------------------------------- validate

def validate_op(vqt, p: Params, events: int, replications: int, seed: int,
                fault: Fault | None = None) -> Op:
    argv = ["validate", *p.argv(), "--events", str(events),
            "--replications", str(replications), "--seed", str(seed)]
    grid = [p.k * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)]

    def check(result):
        code, out, err = result
        return check_validate(p, code, out, grid)

    return Op("validate", f"validate {p!r} seed={seed}", lambda: cli_call(vqt, argv), check,
              work=lambda result: events * replications, fault=fault)


def validate_block(vqt) -> list[Op]:
    """Simulator-bound cases at c = 2, 8, 16 and one equal-rate case.

    The simulation seeds are fixed, not drawn: validate's own |z| <= 4 rule
    flags a correct model now and then (see README), and an operation that
    fails on some seeds only cannot be counted steadily.
    """
    return [
        validate_op(vqt, Params(2, 1.4, 0.8, 1.0, 0.5), 250_000, 2, 1000),
        validate_op(vqt, Params(8, 7.2, 0.8, 1.0, 0.5), 250_000, 2, 1001),
        # At load 0.5 no batch waits past 1.5: the two tail points trip SATURATED_Z.
        validate_op(vqt, Params(16, 8.0, 0.8, 1.0, 0.5), 250_000, 2, 1002, fault=SATURATED_Z),
        validate_op(vqt, Params(4, 3.2, 1.0, 1.0, 0.5), 250_000, 2, 1003),
    ]


# --------------------------------------------------------------- workloads

def companion(vqt, skip: str) -> list[Op]:
    """A small fixed block of each operation kind the workload does not stress.

    Each kind repeats one input six times: the median of a metric then rests
    on tens of like samples per run, not on the border between unlike ones.
    """
    ops = []
    for i in range(COMPANION_REPEATS):
        if skip != "sweep":
            ops.append(sweep_op(vqt, Params(3, 2.0, 0.6, 0.8, 5.0), "lambda", 0.2, 2.3, 40,
                                ["mean", "p_wait", "cdf@5"]))
        if skip != "figures":
            ops += figure_ops(vqt, Params(2, 2.0, 0.75, 1.12, 0.45), 7, solves=4, json=False)
        if skip != "validate":
            ops.append(validate_op(vqt, Params(2, 1.4, 0.8, 1.0, 0.5), 40_000, 1, 11 + i))
    return ops


def interleave(primary: list[Op], extra: list[Op]) -> list[Op]:
    """Spread ``extra`` evenly through ``primary``, both keeping their order.

    The machine's speed drifts over seconds, so samples of one kind bunched
    at the end of a round would all see the same speed.
    """
    slots: list[list[Op]] = [[] for _ in primary]
    for i, op in enumerate(extra):
        slots[i * len(primary) // len(extra)].append(op)
    return [op for first, rest in zip(primary, slots) for op in (first, *rest)]


def build(vqt, workload: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    if workload == "sweep":
        primary = sweep_block(vqt, rng)
    elif workload == "figures":
        primary = figures_block(vqt, rng)
    elif workload == "validate":
        primary = validate_block(vqt)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(primary, companion(vqt, workload))


WORKLOADS = ("sweep", "figures", "validate")
