"""Stacked solves against solving each point on its own.

solver.solve_rows solves points that share c in one pass with a leading row
axis; every row must carry the bits of its own solve (signed zeros
included), and every failing row the error its own solve raises.
"""

import contextlib
import io
import sys

import numpy as np
import pytest

from vqt import cli, model, numerics, solver
from vqt.errors import (Degenerate, NullSpaceDimension, NumericalError, RowErrors, Singular,
                        ValidationError, VqtError)
from vqt.model import per_row, validate_params
from vqt.solver import eval_cdf, eval_density, mean_wait, solve, solve_rows, verify_solution


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def row(a, i, ndim):
    """Row i of a stacked array whose single-point form has ndim axes; a
    shared array is every row's."""
    a = np.asarray(a)
    return a[i] if a.ndim > ndim else a


def valid(points):
    out = []
    for p in points:
        try:
            out.append(validate_params(*p))
        except ValidationError:
            pass
    return out


def straddling_grid(k):
    """Points below, at and above each of a stack's thresholds."""
    k = np.atleast_1d(k)
    return np.unique(np.concatenate([np.linspace(0.0, 3.0, 7), k, 0.5 * k, 1.5 * k]))


def check_rows(points, levels=None):
    """solve_rows against solve, row by row; returns (rows solved, rows failed)."""
    sol, live, errors = solve_rows(points, levels)
    assert sorted(live + list(errors)) == list(range(len(points)))
    if sol is not None and np.ndim(sol.b_c):
        xs = straddling_grid(sol.mixture.k)
        grid_f, grid_total = eval_cdf(sol, xs)
        grid_density = eval_density(sol, xs)
        c, rows = sol.params.c, len(live)
        assert grid_f.shape == grid_density.shape == xs.shape + (rows, c)
        assert grid_total.shape == xs.shape + (rows,)
    for i, p in enumerate(points):
        try:
            single = solve(p)
        except VqtError as exc:
            assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
            continue
        j = live.index(i)
        if np.ndim(sol.b_c) == 0:           # the rows left are one point
            assert sol.b_c == single.b_c
            continue
        assert len(sol.pi_levels) == len(single.pi_levels)
        for level, want in zip(sol.pi_levels, single.pi_levels):
            same(level[j], want)
        same(sol.b_c[j], single.b_c)
        same(sol.f_infinity[j], single.f_infinity)
        assert sol.warnings[j] == single.warnings
        mix, ref = sol.mixture, single.mixture
        assert row(mix.k, j, 0) == ref.k
        for name, ndim in (("lower_rates", 1), ("lower_weights", 2), ("lower_constant", 1),
                           ("upper_rates", 1), ("upper_weights", 2), ("upper_constant", 1)):
            same(row(getattr(mix, name), j, ndim), getattr(ref, name))
        same(mean_wait(sol)[j], mean_wait(single))
        same(sol.p_wait_zero[j], single.p_wait_zero)
        for x in (0.0, 0.7, 3.0):
            same(eval_cdf(sol, x)[1][j], eval_cdf(single, x)[1])
            same(eval_density(sol, x)[j], eval_density(single, x))
        want_f, want_total = eval_cdf(single, xs)
        same(grid_f[:, j], want_f)
        same(grid_total[:, j], want_total)
        same(grid_density[:, j], eval_density(single, xs))
        for a in range(c):
            for b in range(c - a):
                assert type(single.pi(a, b)) is float
                same(sol.pi(a, b)[j], single.pi(a, b))
    return len(live), len(errors)


def test_k_stack_grid_point_below_some_thresholds_and_above_others():
    points = valid((3, 1.5, 0.8, 1.0, k) for k in (0.3, 0.6, 0.9, 1.2))
    sol, _, _ = solve_rows(points)
    below = straddling_grid(sol.mixture.k)[:, None] <= sol.mixture.k
    assert (below.any(axis=1) & ~below.all(axis=1)).any()
    assert check_rows(points) == (4, 0)
    # points of any shape lead: a (2, 2) grid gives (2, 2) + rows
    xs = np.array([0.0, 0.75, 0.9, 2.0])
    f, total = eval_cdf(sol, xs)
    f2, total2 = eval_cdf(sol, xs.reshape(2, 2))
    same(f2, f.reshape(2, 2, 4, 3))
    same(total2, total.reshape(2, 2, 4))
    same(eval_density(sol, xs.reshape(2, 2)), eval_density(sol, xs).reshape(2, 2, 4, 3))


def test_stack_evaluators_check_their_input():
    sol, _, _ = solve_rows(valid((3, 1.5, 0.8, 1.0, k) for k in (0.3, 0.6)))
    evaluators = (sol.mixture.components, sol.mixture.density,
                  lambda x: eval_cdf(sol, x), lambda x: eval_density(sol, x))
    for x in (-1.0, float("nan"), np.array([0.2, -1e-300]), np.array([np.nan, 0.2])):
        for evaluate in evaluators:
            with pytest.raises(ValueError, match=r"^x must be >= 0$"):
                evaluate(x)


@pytest.mark.parametrize("name, values", [("lam", (1.0, 1.5, 2.0)), ("mu1", (0.3, 0.5, 1.4)),
                                          ("k", (0.1, 0.5, 2.0))])
def test_level_table_serves_stacks_whose_rates_are_shared(name, values):
    point = {"c": 4, "lam": 2.5, "mu1": 0.8, "mu2": 1.0, "k": 0.5}
    levels = {}
    assert check_rows([validate_params(**{**point, name: v}) for v in values], levels) == (3, 0)
    # per-row rates get a table of their own; shared ones extend theirs to c - 1 levels
    assert ({key: len(table) for key, table in levels.items()}
            == ({(2.5, 0.8, 1.0): 3} if name == "k" else {}))


def test_verify_solution_takes_one_point():
    points = [validate_params(2, lam, 0.75, 1.12, 0.45) for lam in (0.5, 1.0, 2.0)]
    stack, _, _ = solve_rows(points)
    with pytest.raises(ValueError, match=r"verify_solution takes one point: "
                                         r"verify solve\(points\[i\]\) for row i"):
        verify_solution(stack, rng=0)
    assert verify_solution(solve(points[0]), rng=0).max_residual < 1e-8


@pytest.mark.parametrize("stacked", [False, True])
def test_pi_index_out_of_range_raises(stacked):
    # pi(i, j) is entry i of level i + j, where a negative i would count from the end
    points = [validate_params(3, lam, 0.75, 1.12, 0.45) for lam in (0.5, 1.0, 2.0)]
    sol = solve_rows(points)[0] if stacked else solve(points[-1])
    for i, j in ((-1, 1), (-1, 2), (1, -1), (0, 3), (2, 1)):
        with pytest.raises(IndexError, match=rf"^pi\({i}, {j}\) needs i, j >= 0"):
            sol.pi(i, j)
    assert np.array_equal(sol.pi(1, 1), sol.pi_levels[2][..., 1])


@pytest.mark.parametrize("mu1", [0.3, 0.6, 0.9])
def test_paper_lambda_sweeps(mu1):
    points = valid((3, lam, mu1, 0.8, 5.0) for lam in np.linspace(0.2, 2.3, 40).tolist())
    solved, failed = check_rows(points)
    assert solved == len(points) and not failed


@pytest.mark.parametrize("c", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("name", ["mu1", "mu2", "k"])
def test_seeded_sweeps(c, name):
    rng = np.random.default_rng(1000 * c + len(name))
    base = {"lam": round(float(rng.uniform(0.3, 0.7)) * c, 4),
            "mu1": round(float(rng.uniform(0.6, 1.4)), 4), "mu2": 1.0,
            "k": round(float(rng.uniform(0.2, 1.5)), 4)}
    lo, hi = {"mu1": (0.5, 1.5), "mu2": (0.95, 1.6), "k": (0.1, 4.0)}[name]
    points = valid(
        (c, *({**base, name: v}[f] for f in ("lam", "mu1", "mu2", "k")))
        for v in np.linspace(lo, hi, 25).tolist())
    solved, _ = check_rows(points)
    assert solved >= len(points) // 2


def test_k_sweep_rows_get_their_own_growth_warnings_and_errors():
    # past theta_max*k of about 709 (k > 386 here) the growing terms of its
    # mixture overflow at k; check_rows compares each row's warnings with
    # its own solve's
    points = valid((3, 2.0, 0.3, 0.8, k) for k in np.linspace(0.5, 480.0, 12).tolist())
    solved, failed = check_rows(points)
    assert solved and failed
    sol, live, errors = solve_rows(points)
    assert sorted(errors) == [9, 10, 11]
    assert all("exp overflows past about 709" in str(e) for e in errors.values())


def test_degenerate_row_from_the_distinctness_check():
    # 1.500000002 passes validate_params, but two theta roots meet there
    points = valid((2, 1.0, mu1, 1.0, 1.0) for mu1 in (1.3, 1.500000002, 1.7, 1.9))
    assert len(points) == 4
    with pytest.raises(Degenerate, match="theta eigenvalue collision"):
        solve(points[1])
    solved, failed = check_rows(points)
    assert (solved, failed) == (3, 1)


def test_null_space_row_fails_alone():
    # mu1 <= 1e-9 * scale passes the root-collision test, and B2 - D_tilde_2
    # then has two diagonal entries at or below the null-space tolerance
    points = [validate_params(2, 3.7245930716628366, mu1, 3.0637119266621804, 0.934044314559858)
              for mu1 in (0.5, 6.0776831686377554e-09, 1.0)]
    with pytest.raises(RowErrors) as got:
        solve(solver._stack(points))
    assert list(got.value.errors) == [1]
    assert type(got.value.errors[1]) is NullSpaceDimension
    assert str(got.value.errors[1]) == "null space of B - D_tilde is not 1-dimensional"
    assert check_rows(points) == (2, 1)
    for i in (0, 2):
        assert verify_solution(solve(points[i]), rng=0).max_residual <= 3e-15


def test_non_finite_mean_fails_only_its_row():
    # k e^{theta k} overflows at the middle row's k (ROADMAP item 1's input)
    points = [validate_params(8, 0.11411819831714975, 0.01696416629872374,
                              0.01658295957743674, k) for k in (100.0, 6638.120385302224, 1000.0)]
    sol, live, errors = solve_rows(points)
    assert (live, errors) == ([0, 1, 2], {})
    with np.errstate(all="ignore"), pytest.raises(RowErrors) as got:
        mean_wait(sol)
    assert list(got.value.errors) == [1]
    assert type(got.value.errors[1]) is NumericalError
    assert str(got.value.errors[1]) == "non-finite mean"
    rest = mean_wait(solve_rows([points[0], points[2]])[0])
    for j, i in enumerate((0, 2)):
        same(rest[j], mean_wait(solve(points[i])))


def sweep(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", *argv])
    return code, out.getvalue(), err.getvalue()


def per_point_sweep(c, lam, mu1, mu2, k, name, values, metrics):
    """The sweep's rows and its stderr (each row's warnings, named by its
    value), each point solved on its own."""
    lines, err = [], ""
    for v in values:
        p = {"c": c, "lambda": lam, "mu1": mu1, "mu2": mu2, "k": k, name: v}
        try:
            sol, model = cli._solve_or_route(p["c"], p["lambda"], p["mu1"], p["mu2"], p["k"])
        except ValidationError as exc:
            lines.append(f"{cli._fmt(v)},{type(exc).__name__.lower()}" + "," * len(metrics))
            continue
        if model == "erlang_c":
            got = {"mean": sol.mean(), "p_wait": sol.c_prob, "cdf@3": sol.cdf(3.0)}
        else:
            p_wait = 1.0 - sol.p_wait_zero      # roundoff in (-1e-8, 0) prints as 0
            got = {"mean": mean_wait(sol), "p_wait": 0.0 if -1e-8 < p_wait < 0 else p_wait,
                   "cdf@3": eval_cdf(sol, 3.0)[1]}
            err += "".join(f"warning: {name}={cli._fmt(v)}: {w}\n" for w in sol.warnings)
        status = "erlang_c" if model == "erlang_c" else "ok"
        lines.append(",".join([cli._fmt(v), status] + [cli._fmt(got[m]) for m in metrics]))
    return lines, err


@pytest.mark.parametrize("argv, name, values", [
    # crosses mu1 = mu2 = 0.8: one erlang_c row
    (["--c", "3", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8", "--k", "5",
      "--sweep", "mu1=0.5:1.1:7"], "mu1", np.linspace(0.5, 1.1, 7)),
    # mu1 = 1.5 fails validation, 1.500000002 the distinctness check
    (["--c", "2", "--lambda", "1", "--mu1", "1", "--mu2", "1", "--k", "1",
      "--sweep", "mu1=1.499999998:1.500000006:5"], "mu1",
     np.linspace(1.499999998, 1.500000006, 5)),
    # c sweeps share one table of boundary levels, in any order of c
    (["--c", "2", "--lambda", "0.7", "--mu1", "0.8", "--mu2", "1", "--k", "0.5",
      "--sweep", "c=1:16:16"], "c", np.linspace(1, 16, 16)),
    # descending; c = 3 is degenerate (lambda = c*(mu2 - mu1))
    (["--c", "2", "--lambda", "1.5", "--mu1", "0.6", "--mu2", "1.1", "--k", "1.5",
      "--sweep", "c=12:2:11"], "c", np.linspace(12, 2, 11)),
    (["--c", "2", "--lambda", "0.9", "--mu1", "1.3", "--mu2", "0.7", "--k", "0.8",
      "--sweep", "c=2:20:10"], "c", np.linspace(2, 20, 10)),
    # nonpositive rows, then unstable ones
    (["--c", "2", "--lambda", "2.5", "--mu1", "0.9", "--mu2", "1", "--k", "2",
      "--sweep", "c=-2:8:11"], "c", np.linspace(-2, 8, 11)),
    # equal rates: every row is erlang_c
    (["--c", "2", "--lambda", "0.7", "--mu1", "0.8", "--mu2", "0.8", "--k", "1",
      "--sweep", "c=1:9:9"], "c", np.linspace(1, 9, 9)),
    # unstable, unstable, erlang_c, ok, degenerate (lambda = c*(mu2 - mu1)), ok:
    # rows with and without metrics, and the two ok rows one mu2 stack
    (["--c", "2", "--lambda", "1", "--mu1", "0.75", "--mu2", "1", "--k", "1",
      "--sweep", "mu2=0.25:1.5:6"], "mu2", np.linspace(0.25, 1.5, 6)),
])
def test_cli_sweep_rows_match_per_point(argv, name, values):
    metrics = ["mean", "p_wait", "cdf@3"]
    code, out, err = sweep(argv + ["--metrics", ",".join(metrics)])
    assert code == 0
    base = dict(zip(argv[0:10:2], argv[1:10:2]))
    c, lam, mu1, mu2, k = (float(base[f"--{f}"]) for f in ("c", "lambda", "mu1", "mu2", "k"))
    expect, warned = per_point_sweep(int(c), lam, mu1, mu2, k, name, values.tolist(), metrics)
    assert out.splitlines()[1:] == expect
    assert err == warned


def test_600_point_sweep_fails_as_its_own_solve():
    code, out, err = sweep(["--c", "6", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8",
                            "--k", "5", "--sweep", "lambda=0.2:3.0:600",
                            "--metrics", "mean,p_wait,cdf@5"])
    assert (code, out) == (3, "")
    assert err == "Singular: pivot -1.663e-15 below 1e-14 of its row scale at column 5\n"
    # rows before the abort carry warnings, and an aborted sweep prints none
    assert solve(validate_params(6, np.linspace(0.2, 3.0, 600)[597], 0.3, 0.8, 5.0)).warnings
    lam = np.linspace(0.2, 3.0, 600)[598]
    with pytest.raises(Singular) as single:
        solve(validate_params(6, lam, 0.3, 0.8, 5.0))
    assert f"Singular: {single.value}\n" == err and round(lam, 4) == 2.9953


def test_points_of_different_c_do_not_stack():
    points = [validate_params(2, 1.4, 0.8, 1.0, 0.5), validate_params(3, 1.4, 0.8, 1.0, 0.5)]
    for stack in (solver._stack, solve_rows):
        with pytest.raises(ValueError, match="^a stack of points must share c$"):
            stack(points)


def test_stacked_lu_reports_each_singular_matrix():
    rng = np.random.default_rng(7)
    n = 5
    good = [rng.normal(size=(n, n)) + 4 * np.eye(n) for _ in range(4)]
    bad = good[1].copy()
    bad[3] = 1e-16 * bad[2]                     # no usable pivot left in column 3
    zero = good[2].copy()
    zero[0] = 0.0
    stack = np.array([good[0], bad, good[3], zero])
    b = rng.normal(size=(4, n, 2))
    with pytest.raises(RowErrors) as got:
        numerics.inv(stack)
    assert sorted(got.value.errors) == [1, 3]
    for i in (1, 3):
        with pytest.raises(Singular) as single:
            numerics.inv(stack[i])
        assert str(got.value.errors[i]) == str(single.value)
    assert "at column" in str(got.value.errors[1])
    assert str(got.value.errors[3]) == "matrix has a zero row"
    # the elimination leaves the other matrices as their own factorization
    ab = np.moveaxis(np.concatenate((stack, b), axis=-1), 0, -1).copy()
    with pytest.raises(RowErrors) as factored:
        numerics._factor_stack(ab, n)
    assert sorted(factored.value.errors) == [1, 3]
    for i in (0, 2):
        packed = numerics.lu_factor(np.concatenate((stack[i], b[i]), axis=-1).tolist())
        same(ab[..., i], packed)
    # and a stack of the good ones inverts to each one's own bits
    ok = stack[[0, 2]]
    x = numerics.inv(ok)
    for j, i in enumerate((0, 2)):
        same(x[j], numerics.inv(stack[i]))


@pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
def test_stacked_lu_matches_single_solves(n):
    rng = np.random.default_rng(n)
    kinds = [np.triu(rng.normal(size=(n, n))) + 3 * np.eye(n),
             np.tril(rng.normal(size=(n, n))) + 3 * np.eye(n),
             rng.normal(size=(n, n)) + n * np.eye(n)]
    # a stack that is not all upper triangular is eliminated whole, an
    # upper one goes to back substitution: each way, every matrix keeps the
    # bits of its own inverse, signed zeros included (0 / a negative pivot)
    for stack in (np.array(kinds), np.array(kinds[:1] * 3), np.array(kinds[1:] * 2)):
        for sign in (1.0, -1.0):
            x = numerics.inv(sign * stack)
            for i in range(len(stack)):
                same(x[i], numerics.inv(sign * stack[i]))


def test_inv_family_gives_each_row_its_first_failing_matrix():
    rng = np.random.default_rng(11)
    n = 4
    good = rng.normal(size=(3, 3, n, n)) + 4 * np.eye(n)      # matrix, row, n, n
    good[1, 0, 0] = 0.0                     # row 0: the second matrix has a zero row
    good[1, 2, 2] = 1e-16 * good[1, 2, 1]   # row 2: the second and the third fail
    good[2, 2, 3] = 1e-16 * good[2, 2, 0]
    with pytest.raises(RowErrors) as got:
        numerics.inv_family(*good)
    assert list(got.value.errors) == [0, 2]
    for i in (0, 2):
        with pytest.raises(Singular) as own:
            for m in good[:, i]:
                numerics.inv(m)
        assert str(got.value.errors[i]) == str(own.value)
    assert str(got.value.errors[0]) == "matrix has a zero row"
    # a single matrix broadcasts against the stacks; each inverse is its own call's
    shared = good[0, 1]
    for x, want in zip(numerics.inv_family(shared, good[2, :2]),
                       (np.broadcast_to(shared, (2, n, n)), good[2, :2])):
        for j in range(2):
            same(x[j], numerics.inv(want[j]))


# A lambda stack whose row 1 (draw 1/432 of the draw set) fails in the M2
# inverse, inside the merged M0/M1/M2 call, and a mu1 stack whose row 1
# (from draw 2/91) fails in the stacked inv(B2); beside rows that solve.
FAILING_STACKS = {
    "lam": [(9, lam, 0.44602347063574416, 2.0907912281981478, 0.014634839008286443)
            for lam in (13.082818911783928, 14.536465457537698, 15.263288730414583)],
    "mu1": [(16, 0.4085163980408143, mu1, 0.2694780105568362, 4.2465091753503845)
            for mu1 in (1.0, 2.287726273808432, 2.0)],
}


@pytest.mark.parametrize("name, column, caller", [("lam", 8, "particular_matrices"),
                                                  ("mu1", 15, "build_matrices")])
def test_rows_failing_in_a_stacked_inverse_fail_alone(name, column, caller):
    points = valid(FAILING_STACKS[name])
    assert len(points) == 3
    with pytest.raises(Singular, match=f"at column {column}$") as own:
        solve(points[1])
    assert caller in [entry.name for entry in own.traceback]
    assert check_rows(points) == (2, 1)


# the shape of each inv call: B1, B2, then the particular matrices, which a
# stack inverts in one call on their concatenation
@pytest.mark.parametrize("points, shapes", [
    (valid(FAILING_STACKS["lam"][:1]), [(9, 9)] * 5),
    (valid(FAILING_STACKS["lam"][::2]), [(9, 9)] * 2 + [(6, 9, 9)]),   # B1, B2 shared
    (valid(FAILING_STACKS["mu1"][::2]), [(2, 16, 16)] * 2 + [(6, 16, 16)]),
])
def test_inv_calls_per_pass(monkeypatch, points, shapes):
    real, count = numerics.inv, []

    def counted(a):
        count.append(a.shape)
        return real(a)
    for module in (model, numerics):        # model binds inv; inv_family calls it
        monkeypatch.setattr(module, "inv", counted)
    sol, live, errors = solve_rows(points)
    assert (live, errors) == (list(range(len(points))), {})
    assert count == shapes


def same_solution(got, want):
    for level, ref in zip(got.pi_levels, want.pi_levels, strict=True):
        same(level, ref)
    same(got.b_c, want.b_c)
    same(got.f_infinity, want.f_infinity)
    assert got.warnings == want.warnings
    for name in ("lower_rates", "lower_weights", "lower_constant",
                 "upper_rates", "upper_weights", "upper_constant"):
        same(getattr(got.mixture, name), getattr(want.mixture, name))


def level_solves(monkeypatch, fail_order=None):
    """Wrap solver._row_solve to list the order of each boundary-level solve;
    the one of order fail_order raises a Singular that names its input."""
    orders, real = [], solver._row_solve

    def row_solve(a, b, name):
        if sys._getframe(1).f_code.co_name == "_c_hat_levels":
            orders.append(a.shape[-1])
            if a.shape[-1] == fail_order:
                raise Singular(f"level matrix of order {fail_order}, corner {a[0, 0]!r}")
        return real(a, b, name)
    monkeypatch.setattr(solver, "_row_solve", row_solve)
    return orders


BASE = ["--c", "2", "--lambda", "0.7", "--mu1", "0.8", "--mu2", "1", "--k", "0.5"]


@pytest.mark.parametrize("spec, top", [("c=1:16:16", 16), ("c=16:1:16", 16),
                                       ("c=2:20:10", 20), ("c=3:3:1", 3)])
def test_c_sweep_inverts_each_level_once(monkeypatch, spec, top):
    orders = level_solves(monkeypatch)
    code, _, _ = sweep(BASE + ["--sweep", spec])
    # level n solves with a matrix of order n + 1, for n = 1 .. c - 2
    assert code == 0 and sorted(orders) == list(range(2, top))
    orders.clear()
    for c in range(1, 17):                     # each point on its own: sum of (c - 2)
        solve(validate_params(c, 0.7, 0.8, 1.0, 0.5))
    assert len(orders) == 105


def test_consecutive_c_sweeps_share_nothing():
    metrics = ["mean", "p_wait", "cdf@3"]
    p = validate_params(8, 0.7, 0.8, 1.0, 0.5)
    before = solve(p)
    for lam, mu1 in ((0.7, 0.8), (1.6, 0.8), (1.6, 0.5)):
        code, out, err = sweep(["--c", "2", "--lambda", str(lam), "--mu1", str(mu1), "--mu2", "1",
                                "--k", "0.5", "--sweep", "c=1:12:12", "--metrics", ",".join(metrics)])
        assert code == 0
        values = np.linspace(1, 12, 12).tolist()
        assert (out.splitlines()[1:], err) == per_point_sweep(2, lam, mu1, 1.0, 0.5, "c", values,
                                                              metrics)
    same_solution(solve(p), before)


def test_failing_level_fails_every_point_that_needs_it(monkeypatch):
    level_solves(monkeypatch, fail_order=5)    # level 4, which c >= 6 needs
    levels, top = {}, 0
    for c in list(range(1, 13)) + [7, 3]:
        p = validate_params(c, 0.7, 0.8, 1.0, 0.5)
        sol, live, errors = solve_rows([p], levels)
        try:
            single = solve(p)
        except Singular as exc:
            assert c >= 6 and not live and str(errors[0]) == str(exc)
        else:
            assert c < 6 and live == [0]
            same_solution(sol, single)
        # levels join the table whole: C_hat_0 .. C_hat_3 at most
        top = max(top, c)
        assert len(levels[(0.7, 0.8, 1.0)]) == min(top - 1, 4)
    with pytest.raises(Singular) as own:
        solve(validate_params(6, 0.7, 0.8, 1.0, 0.5))
    for spec in ("c=1:12:12", "c=12:1:12"):
        assert sweep(BASE + ["--sweep", spec]) == (3, "", f"Singular: {own.value}\n")


def test_singular_level_fails_only_its_row(monkeypatch):
    points = [validate_params(8, lam, 0.8, 1.0, 0.5) for lam in (0.7, 1.4, 2.8, 4.2)]
    real, calls = solver._row_solve, []

    def row_solve(a, b, name):
        # the first stacked pass: row 2's level 3 matrix made exactly singular
        if sys._getframe(1).f_code.co_name == "_c_hat_levels" and a.shape[-1] == 4:
            calls.append(a.shape)
            if len(calls) == 1:
                a = a.copy()
                a[2] = 0.0
        return real(a, b, name)
    monkeypatch.setattr(solver, "_row_solve", row_solve)
    sol, live, errors = solve_rows(points)
    monkeypatch.undo()
    assert calls == [(4, 4, 4), (3, 4, 4)]          # the pass, then its rerun without row 2
    assert live == [0, 1, 3] and list(errors) == [2]
    assert type(errors[2]) is Singular and str(errors[2]) == "the level 3 matrix is singular"
    for j, i in enumerate(live):
        single = solve(points[i])
        for level, want in zip(sol.pi_levels, single.pi_levels, strict=True):
            same(level[j], want)
        same(sol.b_c[j], single.b_c)
        same(sol.f_infinity[j], single.f_infinity)
        for name, ndim in (("lower_rates", 1), ("lower_weights", 2), ("lower_constant", 1),
                           ("upper_rates", 1), ("upper_weights", 2), ("upper_constant", 1)):
            same(row(getattr(sol.mixture, name), j, ndim), getattr(single.mixture, name))


def mean_wait_by_moments(sol):
    """mean_wait with every small root's moment, the zero rate's included,
    from solver._moment."""
    mix = sol.mixture
    k = per_row(mix.k, 1)
    th, th_k = mix.lower_rates, k
    if isinstance(k, np.ndarray):
        th, th_k = np.broadcast_arrays(th, k)
    small = np.abs(th) * th_k < 1e-6
    eb = np.exp(th * th_k)
    moments = th_k * eb - (eb - 1.0) / np.where(small, 1.0, th)
    for idx in zip(*np.nonzero(small)):
        moments[idx] = solver._moment(float(th[idx]), float(th_k[idx] if th_k is not k else k))
    below = 0.0
    for term in (moments * np.add.reduce(mix.lower_weights, axis=-1)).T:
        below = below + term
    return below + numerics.vec_dot(1.0 / mix.upper_rates - k,
                                    np.add.reduce(mix.upper_weights, axis=-1))


def test_mean_wait_matches_the_moment_of_every_root():
    sols = [solve(validate_params(c, 0.7 * c, 0.8, 1.0, 0.5)) for c in (1, 2, 3, 8, 16)]
    tiny = solve(validate_params(3, 2.0, 0.6, 0.8, 1e-7))
    assert (np.abs(tiny.mixture.lower_rates) * 1e-7 < 1e-6).all()   # every root on the series
    sols.append(tiny)
    for name, values in (("lam", np.linspace(0.6, 2.4, 9)), ("mu1", np.linspace(0.5, 1.4, 9)),
                         ("k", np.geomspace(1e-7, 3.0, 9))):
        point = {"c": 3, "lam": 1.5, "mu1": 0.8, "mu2": 1.0, "k": 0.5}
        stack, live, _ = solve_rows(valid(tuple({**point, name: v}.values())
                                          for v in values.tolist()))
        assert len(live) > 1
        sols.append(stack)
    for sol in sols:
        same(mean_wait(sol), mean_wait_by_moments(sol))
