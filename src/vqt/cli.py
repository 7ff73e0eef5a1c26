"""Command-line front end: CDF/PDF grids, sweeps, and simulation validation.

Three subcommands:

* ``solve``    -- evaluate the stationary distribution on an x-grid and emit
  CSV or JSON (plus mean, scalar mixture, residual report on request).
* ``validate`` -- compare the analytic CDF and mean against an independent
  discrete-event simulation; exit 4 when any z-score exceeds 4 or is NaN.
* ``sweep``    -- vary one parameter over a range and emit one metric row per
  value.  A point whose ValidationError (Degenerate included) is its status
  leaves the others going; a NumericalError aborts the sweep, the first in
  row order.  A lambda, mu1, mu2 or k sweep is solved in stacked passes of
  _SWEEP_CHUNK rows, each bit-identical to its own solve; a c sweep point by
  point.  Points that share lambda, mu1 and mu2 share one table of boundary
  levels, so each level is computed once.

Probabilities print as the solver gives them, except that a value in
(-1e-8, 0), roundoff below zero, prints as 0: each pi entry of ``solve``
and each ``p_wait`` of ``sweep``.

``--out`` is checked before any solve or simulation and written only by a
run that succeeds: a failed run leaves no new file and an old one as it was.

Exit codes: 0 ok, 2 validation failure or an ``--out`` path that cannot be
written, 3 numerical failure, 4 statistical mismatch.  Equal rates route to
the Erlang-C reduction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

import numpy as np

from . import solver
from .errors import NumericalError, RowErrors, ValidationError
from .model import check_stable, inspect_params, validate_params

__all__ = ["main", "run_solve", "run_validate", "run_sweep"]

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_STATISTICAL = 4

# Rows per stacked solve (about 60 c x c arrays each).  On the 600-point
# c = 6 sweep 64 rows take about 2x the time per row of one 600-row pass,
# but add 1.8 MB to peak RSS instead of 9.0 MB (BENCH_12.json).
_SWEEP_CHUNK = 64


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=int, required=True, help="number of servers")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="arrival rate")
    p.add_argument("--mu1", type=float, required=True,
                   help="service rate for delays <= k")
    p.add_argument("--mu2", type=float, required=True,
                   help="service rate for delays > k")
    p.add_argument("--k", type=float, required=True, help="delay threshold")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-max", type=float, default=None,
                   help="largest x on the grid (default 10*k)")
    p.add_argument("--grid-points", type=int, default=400)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--mean", action="store_true", help="also report E[W]")
    p.add_argument("--mixture", action="store_true",
                   help="also report the scalar exponential terms")
    p.add_argument("--verify", action="store_true",
                   help="append the residual report")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared by every
    call in the process (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(
        prog="vqt",
        description="Stationary virtual-queueing-time distribution of an "
                    "M/M/c queue whose service rate switches at a delay "
                    "threshold.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="emit CDF/PDF on a grid")
    _add_model_flags(ps)
    _add_grid_flags(ps)

    pv = sub.add_parser("validate", help="cross-check against simulation")
    _add_model_flags(pv)
    pv.add_argument("--events", type=int, default=1_000_000,
                    help="arrivals per replication")
    pv.add_argument("--seed", type=int, default=20260810)
    pv.add_argument("--replications", type=int, default=4)
    pv.add_argument("--grid", default=None,
                    help="comma-separated comparison points")
    pv.add_argument("--out", default=None)

    pw = sub.add_parser("sweep", help="vary one parameter, one row per value")
    _add_model_flags(pw)
    pw.add_argument("--sweep", required=True,
                    help="param=start:stop:steps with param one of "
                         "lambda, mu1, mu2, k, c")
    pw.add_argument("--metrics", default="mean",
                    help="comma list: mean, p_wait, cdf@X")
    pw.add_argument("--out", default=None)
    return p


def _grid(x_max: float, points: int, spacing: str, k: float) -> np.ndarray:
    """Evaluation grid on [0, x_max]; the threshold k is injected as an exact
    point only when k <= x_max, so the grid never runs past x_max."""
    if points < 2:
        raise ValidationError("grid needs at least 2 points")
    if not math.isfinite(x_max):
        raise ValidationError("grid-max must be finite")
    if x_max <= 0:
        raise ValidationError("grid-max must be > 0")
    if spacing == "linear":
        grid = np.linspace(0.0, x_max, points)
    elif x_max * 1e-3 == 0.0:
        raise ValidationError("log spacing starts at grid-max * 1e-3, which underflows to 0")
    else:
        grid = np.geomspace(x_max * 1e-3, x_max, points)
    if k <= x_max:
        grid = np.unique(np.concatenate([grid, [k]]))
        # drop near-duplicates of the injected threshold point
        keep = (np.abs(grid - k) > 1e-12 * k) | (grid == k)
        grid = grid[keep]
    return grid


def _solve_or_route(c: int, lam: float, mu1: float, mu2: float,
                    k: float) -> tuple[object, str]:
    """Return (solution, model_tag); equal rates go to the Erlang reduction."""
    if mu1 == mu2:
        params = check_stable(inspect_params(c, lam, mu1, mu2, k))
        from .reference import erlang_c  # loaded on first use
        return erlang_c(params), "erlang_c"
    return solver.solve(validate_params(c, lam, mu1, mu2, k)), "threshold"


def _mixture_payload(mix: solver.ScalarMixture) -> dict:
    """The mixture's terms per branch, as emitted in both output formats;
    each term's weights are a row of the branch's weight array."""
    out = {
        branch: {
            "terms": [{"rate": r, "weights": w} for r, w in zip(rates.tolist(), weights)],
            "constant": const,
        }
        for branch, rates, weights, const in (
            ("below", mix.lower_rates, mix.lower_weights, mix.lower_constant),
            ("above", mix.upper_rates, mix.upper_weights, mix.upper_constant))
    }
    out["above"]["rate_offset"] = mix.k
    return out


def _json(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=1)`` at nesting ``depth``, where ``obj`` may
    hold numpy arrays, written as their ``tolist()`` would be.

    The standard encoder goes through pure Python once ``indent`` is set, one
    generator step per number.  Here a finite, non-empty float64 array takes
    one ``float.__repr__`` pass, the encoder's own rendering of a finite
    float, and string joins.  A finite float is written the same way, any
    other leaf by ``json.dumps``.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.size and np.isfinite(obj).all():
            return _float_array(obj, depth)
        obj = obj.tolist()
    if isinstance(obj, dict):
        items = [f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_json(v, depth + 1)}" for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json(v, depth + 1) for v in obj]
        brackets = "[]"
    elif isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return (brackets[0] + pad + ("," + pad).join(items)
            + "\n" + " " * depth + brackets[1])


def _float_array(a: np.ndarray, depth: int) -> str:
    """A finite, non-empty float64 array as ``_json`` writes it: rendered
    flat, then wrapped into nested lists from the last axis outwards."""
    items = list(map(float.__repr__, a.ravel().tolist()))
    for axis in range(a.ndim - 1, -1, -1):
        n, level = a.shape[axis], depth + axis
        pad = "\n" + " " * (level + 1)
        close = "\n" + " " * level + "]"
        items = ["[" + pad + ("," + pad).join(items[i:i + n]) + close
                 for i in range(0, len(items), n)]
    return items[0]


def _shown(p):
    """A probability as printed: roundoff in (-solver.PI_FLOOR, 0) as 0,
    anything lower kept visible; per row of an array."""
    return np.where((p > -solver.PI_FLOOR) & (p < 0.0), 0.0, p)[()]


def _warn(warnings, prefix: str = "") -> None:
    """One ``warning: <prefix><text>`` line on stderr per warning."""
    for w in warnings:
        print(f"warning: {prefix}{w}", file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def run_solve(args) -> int:
    # Parameters, then the grid (its default end is 10 k), before any solve.
    inspect_params(args.c, args.lam, args.mu1, args.mu2, args.k)
    grid = _grid(10.0 * args.k if args.grid_max is None else args.grid_max,
                 args.grid_points, args.spacing, args.k)
    sol, model = _solve_or_route(args.c, args.lam, args.mu1, args.mu2, args.k)

    if model == "erlang_c":
        comps = None
        cdf = np.array([sol.cdf(x) for x in grid])
        pdf = np.array([sol.density(x) for x in grid])
        mean = sol.mean() if args.mean else None
        payload_extra = {"model": "erlang_c", "p_wait": sol.c_prob}
        mixture = None
    else:
        comps, cdf = solver.eval_cdf(sol, grid)
        pdf = solver.eval_density(sol, grid).sum(axis=1)
        mean = solver.mean_wait(sol) if args.mean else None
        payload_extra = {"model": "threshold"}
        mixture = _mixture_payload(sol.mixture) if args.mixture else None
    # The residual report draws its interior points from a fixed seed, so
    # the same command prints the same residuals.
    report = (solver.verify_solution(sol, rng=0)
              if args.verify and model == "threshold" else None)

    if args.format == "csv":
        # JSON carries the warnings in its payload; CSV has no field for them.
        _warn(sol.warnings if model == "threshold" else ())
        if comps is None:
            lines = ["# model=erlang_c", "x,cdf,pdf"]
            table = np.column_stack([grid, cdf, pdf])
        else:
            header = ",".join(f"F_{i}" for i in range(args.c))
            lines = [f"x,{header},cdf,pdf"]
            table = np.column_stack([grid, comps, cdf, pdf])
        # "%.15g" % v renders exactly as _fmt(v)
        row = ",".join(["%.15g"] * table.shape[1])
        lines += [row % tuple(values) for values in table.tolist()]
        if mean is not None:
            lines.append(f"# mean={_fmt(mean)}")
        weights = ";".join(["%.15g"] * args.c)
        for branch, part in (mixture or {}).items():
            for t in part["terms"]:
                w = weights % tuple(t["weights"].tolist())
                lines.append(f"# mixture,{branch},rate={_fmt(t['rate'])},weights={w}")
            w = weights % tuple(part["constant"].tolist())
            lines.append(f"# mixture,{branch},constant,weights={w}")
        if report is not None:
            for name, value in report.residuals.items():
                lines.append(f"# residual,{name},{_fmt(value)}")
            for w in report.warnings:
                lines.append(f"# warning,{w}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    payload = {
        "params": {"c": args.c, "lambda": args.lam, "mu1": args.mu1,
                   "mu2": args.mu2, "k": args.k},
        **payload_extra,
        "grid": grid,
        "cdf": cdf,
        "pdf": pdf,
    }
    if model == "threshold":
        # pi(i, j) is entry i of level i + j
        levels = [_shown(level).tolist() for level in sol.pi_levels]
        payload["pi"] = [[levels[i + j][i] for j in range(args.c - i)] for i in range(args.c)]
        payload["b_c"] = sol.b_c
        payload["components"] = comps
        payload["warnings"] = list(sol.warnings)
    if mean is not None:
        payload["mean"] = mean
    if mixture is not None:
        payload["mixture"] = mixture
    if report is not None:
        payload["residuals"] = report.residuals
    _emit(_json(payload) + "\n", args.out)
    return 0


def _default_validate_grid(k: float) -> tuple[float, ...]:
    return tuple(k * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0))


def _parse_validate_grid(text: str) -> tuple[float, ...]:
    """The ``--grid`` points, sorted; each must be finite, >= 0 and distinct."""
    try:
        points = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --grid {text!r}: expected comma-separated numbers") from exc
    if not all(math.isfinite(x) and x >= 0 for x in points):
        raise ValidationError(f"bad --grid {text!r}: points must be finite and >= 0")
    points.sort()
    if any(a == b for a, b in zip(points, points[1:])):
        raise ValidationError(f"bad --grid {text!r}: repeated point")
    return tuple(points)


def run_validate(args) -> int:
    if args.events < 1:
        raise ValidationError("--events must be >= 1")
    if args.replications < 1:
        raise ValidationError("--replications must be >= 1")
    grid = _parse_validate_grid(args.grid) if args.grid else _default_validate_grid(args.k)
    sol, model = _solve_or_route(args.c, args.lam, args.mu1, args.mu2, args.k)
    from .simulator import SimConfig, simulate_replicated  # loaded on first use
    est = simulate_replicated(sol.params, SimConfig(
        num_arrivals=args.events, seed=args.seed,
        grid=grid, replications=args.replications,
    ))

    if model == "erlang_c":
        analytic = [sol.cdf(x) for x in grid]
        mean = sol.mean()
    else:
        analytic = solver.eval_cdf(sol, grid)[1].tolist()
        mean = solver.mean_wait(sol)

    lines = ["x,analytic_cdf,sim_cdf,half_width,z"]
    zs = []
    for x, ref, e in zip(grid, analytic, est.cdf_points):
        z = (e.value - ref) / (e.half_width / 1.96)
        zs.append(z)
        lines.append(f"{_fmt(x)},{_fmt(ref)},{_fmt(e.value)},"
                     f"{_fmt(e.half_width)},{z:+.3f}")
    zm = (est.mean_wait.value - mean) / (est.mean_wait.half_width / 1.96)
    zs.append(zm)
    lines.append(f"# mean analytic={_fmt(mean)} sim={_fmt(est.mean_wait.value)} "
                 f"half_width={_fmt(est.mean_wait.half_width)} z={zm:+.3f}")
    _emit("\n".join(lines) + "\n", args.out)
    _warn(sol.warnings if model == "threshold" else ())
    # a NaN z fails too: it compares false
    return 0 if all(abs(z) <= 4.0 for z in zs) else _EXIT_STATISTICAL


def _sweep_values(spec: str) -> tuple[str, list[float]]:
    """The swept parameter and its values; start and stop must be finite,
    steps at least 1, and every value of a c sweep an integer."""
    try:
        name, rng = spec.split("=", 1)
        start, stop, steps = rng.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise ValidationError(f"bad --sweep spec {spec!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"bad --sweep spec {spec!r}: start and stop must be finite")
    if steps < 1:
        raise ValidationError(f"bad --sweep spec {spec!r}: steps must be >= 1")
    name = name.strip()
    if name not in ("lambda", "mu1", "mu2", "k", "c"):
        raise ValidationError(f"cannot sweep {name!r}")
    values = np.linspace(start, stop, steps).tolist()
    if name == "c" and not all(v.is_integer() for v in values):
        raise ValidationError(f"bad --sweep spec {spec!r}: c values must be integers")
    return name, values


def _metric_point(metric: str) -> float | None:
    """X of a ``cdf@X`` metric, finite and >= 0 as in ``validate --grid``;
    None for ``mean`` and ``p_wait``."""
    if metric in ("mean", "p_wait"):
        return None
    if not metric.startswith("cdf@"):
        raise ValidationError(f"unknown metric {metric!r}")
    try:
        x = float(metric[4:])
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x >= 0):
        raise ValidationError(f"bad metric {metric!r}: X must be a finite number >= 0")
    return x


def _sweep_metrics(text: str) -> dict[str, float | None]:
    """Each ``--metrics`` entry with its ``_metric_point``: at least one, none twice."""
    metrics = [m.strip() for m in text.split(",") if m.strip()]
    if not metrics or len(set(metrics)) < len(metrics):
        raise ValidationError(f"bad --metrics {text!r}: name each metric once")
    return {m: _metric_point(m) for m in metrics}


def _sweep_rows(base: dict, name: str, values: list[float],
                metrics: dict[str, float | None]) -> list[dict]:
    """The sweep's rows: equal rates go to Erlang-C, the other valid points
    to solver.solve_rows in chunks (for c one point at a time), all with one
    table of boundary levels, which solve reads where the rates are shared
    floats.  Each row keeps its own solve's warnings."""
    rows, pending = [], []
    for value in values:
        point = {**base, name: int(value) if name == "c" else value}
        row = {"value": value, "status": "ok", "warnings": (), **dict.fromkeys(metrics)}
        rows.append(row)
        c, lam, mu1, mu2, k = (point[key] for key in ("c", "lambda", "mu1", "mu2", "k"))
        try:
            if mu1 != mu2:
                pending.append((row, validate_params(c, lam, mu1, mu2, k)))
                continue
            sol, row["status"] = _solve_or_route(c, lam, mu1, mu2, k)
            evals = {"mean": sol.mean, "p_wait": lambda: sol.c_prob}
            row.update((m, evals[m]() if x is None else sol.cdf(x)) for m, x in metrics.items())
        except ValidationError as exc:
            row["status"] = type(exc).__name__.lower()
    size, levels = (1 if name == "c" else _SWEEP_CHUNK), {}
    for start in range(0, len(pending), size):
        chunk = [row for row, _ in pending[start:start + size]]
        sol, live, errors = solver.solve_rows([p for _, p in pending[start:start + size]],
                                              levels)
        evals, got = {"mean": lambda: solver.mean_wait(sol),
                      "p_wait": lambda: _shown(1.0 - sol.p_wait_zero)}, {}
        try:        # a metric's NumericalError (mean's) is its row's, as above
            got = {m: evals[m]() if x is None else solver.eval_cdf(sol, x)[1]
                   for m, x in metrics.items()} if live else {}
        except RowErrors as exc:
            errors.update((live[i], e) for i, e in exc.errors.items())
        except NumericalError as exc:
            errors.update(dict.fromkeys(live, exc))
        for i in sorted(errors):
            if isinstance(errors[i], NumericalError):
                raise errors[i]
            chunk[i]["status"] = type(errors[i]).__name__.lower()
        stacked = bool(live) and np.ndim(sol.b_c) > 0      # else one point for all rows
        for m, v in got.items():          # one value for all when the rows are one point
            for i, x in zip(live, v.tolist() if stacked else [v] * len(live)):
                chunk[i][m] = x
        for j, i in enumerate(live):
            chunk[i]["warnings"] = sol.warnings[j] if stacked else sol.warnings
    return rows


def run_sweep(args) -> int:
    name, values = _sweep_values(args.sweep)
    metrics = _sweep_metrics(args.metrics)
    base = {"c": args.c, "lambda": args.lam, "mu1": args.mu1,
            "mu2": args.mu2, "k": args.k}

    rows = _sweep_rows(base, name, values, metrics)

    if all(row["status"] not in ("ok", "erlang_c") for row in rows):
        raise ValidationError("every sweep point is invalid")

    lines = [f"{name},status," + ",".join(metrics)]
    for row in rows:
        cells = [_fmt(row["value"]), row["status"]]
        cells += ["" if row[m] is None else _fmt(row[m]) for m in metrics]
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    for row in rows:
        if row["warnings"]:
            _warn(row["warnings"], f"{name}={_fmt(row['value'])}: ")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"solve": run_solve, "validate": run_validate, "sweep": run_sweep}
    # Overflow and invalid values surface as the solver's own errors (a
    # non-finite solution is a NumericalError), not as numpy RuntimeWarnings.
    with np.errstate(all="ignore"):
        try:
            if args.out is not None:        # an unwritable --out fails before the work
                new = not os.path.lexists(args.out)
                open(args.out, "a").close()         # creates a missing file, truncates none
                if new:
                    os.remove(args.out)
            return handler[args.command](args)
        except (ValidationError, OSError, NumericalError) as exc:   # OSError: --out not writable
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return _EXIT_NUMERICAL if isinstance(exc, NumericalError) else _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
