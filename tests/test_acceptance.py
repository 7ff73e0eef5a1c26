"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criterion 5 simulates 4 x 1e7 arrivals and dominates the runtime
(about a minute).

Criterion 3 is special: five of the printed two-server expansion
coefficients are mutually inconsistent (among themselves and with the
printed boundary values, which criteria 1 and 6 pin down to 5e-5), so the
full printed set cannot be reproduced by any function satisfying the model
equations.  The consistent subset is asserted as a regression guard; the
full set is an expected failure.  See notes in the repository root README
and the test output for the exact split.
"""

import time

import numpy as np
import pytest

from vqt.model import build_matrices, inspect_params, validate_params
from vqt.reference import erlang_c, single_server
from vqt.simulator import SimConfig, simulate
from vqt.solver import eval_cdf, eval_density, mean_wait, solve, verify_solution
from vqt.spectral import _spectra

from conftest import TWO_SERVER, class_swap_matrix, random_stable_params

TOL = 5e-5


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def golden():
    return solve(validate_params(**TWO_SERVER))


def test_criterion_1_golden_two_server(golden):
    s = golden
    # F(k) and F'(k-), the lower branch at the threshold
    f_k, f_prime_k = eval_cdf(s, s.params.k)[0], eval_density(s, s.params.k)
    checks = {
        "pi(0,0)": (s.pi(0, 0), 0.0224116),
        "pi(0,1)": (s.pi(0, 1), 0.0108889),
        "pi(1,0)": (s.pi(1, 0), 0.0435035),
        "b_c": (s.b_c, -0.827051),
        "F'(0)[0]": (s.f_prime_0[0], 0.03397),
        "F'(0)[1]": (s.f_prime_0[1], 0.07481),
        "F(k)[0]": (f_k[0], 0.02202),
        "F(k)[1]": (f_k[1], 0.03179),
        "F'(k)[0]": (f_prime_k[0], 0.0679),
        "F'(k)[1]": (f_prime_k[1], 0.0628),
        "F(inf)[0]": (s.f_infinity[0], 0.82705),
        "F(inf)[1]": (s.f_infinity[1], 0.09615),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    params = validate_params(**TWO_SERVER)
    best = min(
        (lambda t0: (solve(params), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    ok = worst < TOL and best < 0.010
    report(1, ok, f"golden values (worst abs err {worst:.2e}), solve {best*1e3:.2f} ms")
    assert worst < TOL
    assert best < 0.010


def test_criterion_2_eigenvalue_regression():
    p = validate_params(**TWO_SERVER)
    m = build_matrices(p)
    (theta, _), (beta, _) = _spectra(p, m)
    want_theta = [1.5631, -1.4331, 0.5, 0.0]
    want_beta = [-0.24, -1.1615, 0.0]
    t_err = max(min(abs(t - got) for got in theta) for t in want_theta)
    b_err = max(min(abs(b - got) for got in beta) for b in want_beta)

    def quad_res(vals, s_of, p_of):
        worst = 0.0
        for i in range(p.c):
            s_, p_ = s_of(i), p_of(i)
            for t in (vals[i], vals[i + p.c]):
                worst = max(worst, abs(t * t - t * s_ - p_))
        return worst

    r_theta = quad_res(theta, lambda i: p.lam - (i + 1) * p.mu1 - (p.c - 1 - i) * p.mu2,
                       lambda i: (p.c - 1 - i) * p.lam * p.mu2)
    r_beta = quad_res(beta, lambda i: p.lam - i * p.mu1 - (p.c - i) * p.mu2,
                      lambda i: i * p.lam * p.mu1)
    ok = t_err < 1e-4 and b_err < 1e-4 and r_theta < 1e-12 and r_beta < 1e-12
    report(2, ok, f"spectra to printed precision (err {max(t_err, b_err):.2e}), "
                  f"quadratic residuals {max(r_theta, r_beta):.2e}")
    assert ok


def _mixture_coefficient(mix, branch: str, rate: float, comp: int) -> float:
    if branch == "lower":
        rates, weights = mix.lower_rates, mix.lower_weights
    else:
        rates, weights = mix.upper_rates, mix.upper_weights
    acc = [w[comp] for r, w in zip(rates, weights) if abs(r - rate) < 1e-3]
    assert acc, f"no term at rate {rate}"
    return float(sum(acc))


# Printed expansion coefficients of the worked two-server example, keyed by
# (branch, rate, component).  Constants use rate 0.0 on the lower branch and
# the branch constant on the upper one.
_PRINTED_CONSISTENT = [
    ("lower", 1.5631, 0, 0.0214),
    ("lower", 1.5631, 1, -0.0258),
    ("lower", 0.5, 1, 0.2303),
    ("lower-const", None, 0, -0.0211),
    ("lower-const", None, 1, 0.0),
    ("upper", -0.24, 0, -0.9616),
    ("upper", -1.1615, 0, 0.2126),
    ("upper", -1.1615, 1, -0.0996),
    ("upper-const", None, 0, 0.8271),
    ("upper-const", None, 1, 0.0961),
]
_PRINTED_INCONSISTENT = [
    ("lower", -1.4331, 0, -0.0686),
    ("lower", -1.4331, 1, 0.0085),
    ("lower-total-const", None, 1, -0.1710),   # printed -0.1891 + 0.0181
    ("upper", -1.5, 0, 0.9281),
    ("upper", -1.5, 1, -0.5847),
]


def _mixture_value(mix, kind, rate, comp):
    if kind == "lower":
        return _mixture_coefficient(mix, "lower", rate, comp)
    if kind == "upper":
        return _mixture_coefficient(mix, "upper", rate, comp)
    if kind == "lower-const":
        return float(mix.lower_constant[comp])
    if kind == "upper-const":
        return float(mix.upper_constant[comp])
    if kind == "lower-total-const":
        # the full constant part: rate-0 mode plus the particular constant
        return (_mixture_coefficient(mix, "lower", 0.0, comp)
                + float(mix.lower_constant[comp]))
    raise KeyError(kind)


def test_criterion_3_consistent_printed_coefficients(golden):
    mix = golden.mixture
    errs = {
        (kind, rate, comp): abs(_mixture_value(mix, kind, rate, comp) - want)
        for kind, rate, comp, want in _PRINTED_CONSISTENT
    }
    worst = max(errs.values())
    n_bad = len(_PRINTED_INCONSISTENT)
    ok = worst < TOL
    report(3, False,
           f"printed-coefficient regression: {len(errs)}/{len(errs) + n_bad} printed "
           f"values reproduced (worst err {worst:.2e}); the remaining {n_bad} are "
           f"mutually inconsistent with the printed boundary values "
           f"(they violate F(0)=0 and threshold continuity) - criterion FAILS "
           f"as stated; see README notes")
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="five printed expansion coefficients contradict the "
                          "printed boundary values; no solution of the model "
                          "equations can reproduce them")
def test_criterion_3_full_printed_set(golden):
    mix = golden.mixture
    for kind, rate, comp, want in _PRINTED_CONSISTENT + _PRINTED_INCONSISTENT:
        assert abs(_mixture_value(mix, kind, rate, comp) - want) < TOL, (kind, rate, comp)


def test_criterion_4_reduction_oracles():
    # (a) single server closed form
    p1 = validate_params(1, 1.0, 2.0, 4.0, 1.0)
    s1 = solve(p1)
    ref1 = single_server(p1)
    xs = np.linspace(0.0, 12.0, 100)
    err_a = max(abs(eval_cdf(s1, x)[1] - ref1.cdf(x)) for x in xs)

    # (b) near-equal rates against Erlang-C
    err_b = 0.0
    for c, lam, mu in ((1, 1.0, 2.0), (2, 1.0, 1.0), (3, 2.0, 0.8)):
        s = solve(validate_params(c, lam, mu, mu * (1 + 1e-7), 1.0))
        ref = erlang_c(inspect_params(c, lam, mu, mu, 1.0))
        grid = np.linspace(0.0, 10.0 / (c * mu - lam), 50)
        err_b = max(err_b, max(abs(eval_cdf(s, x)[1] - ref.cdf(x)) for x in grid))

    ok = err_a < 1e-9 and err_b < 1e-5
    report(4, ok, f"single-server err {err_a:.2e} (<1e-9), "
                  f"Erlang-limit err {err_b:.2e} (<1e-5)")
    assert ok


_SIM_CASES = [
    # (c, lam, mu1, mu2, k, cdf grid)
    (3, 2.0, 0.8, 0.7, 5.0, (1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 14.0, 20.0)),
    (3, 2.0, 0.8, 0.8, 5.0, (1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 14.0, 20.0)),
    (3, 2.0, 0.8, 0.9, 5.0, (1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 14.0, 20.0)),
    (2, 2.0, 0.75, 1.12, 0.45, (0.1, 0.225, 0.45, 0.9, 1.8, 3.0, 5.0, 8.0)),
]


def test_criterion_5_simulation_cross_validation():
    worst_z, worst_time = 0.0, 0.0
    for c, lam, mu1, mu2, k, grid in _SIM_CASES:
        if mu1 == mu2:
            ref = erlang_c(inspect_params(c, lam, mu1, mu2, k))
            analytic = [ref.cdf(x) for x in grid]
            analytic_mean = ref.mean()
        else:
            sol = solve(validate_params(c, lam, mu1, mu2, k))
            analytic = [eval_cdf(sol, x)[1] for x in grid]
            analytic_mean = mean_wait(sol)
        t0 = time.perf_counter()
        est = simulate(inspect_params(c, lam, mu1, mu2, k),
                       SimConfig(num_arrivals=10_000_000, seed=987654321, grid=grid))
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        for ref_val, e in zip(analytic, est.cdf_points):
            worst_z = max(worst_z, abs(e.value - ref_val) / (e.half_width / 1.96))
        worst_z = max(worst_z, abs(est.mean_wait.value - analytic_mean)
                      / (est.mean_wait.half_width / 1.96))
    ok = worst_z <= 4.0 and worst_time < 120.0
    report(5, ok, f"4 cases x 1e7 arrivals: worst |z| {worst_z:.2f} (<=4), "
                  f"slowest case {worst_time:.1f}s (<120s)")
    assert ok


def test_criterion_6_property_suite():
    # Draws whose eigenbasis condition estimate exceeds 1e10 carry an
    # IllConditioned warning by contract (graceful degradation); they are
    # checked at a relaxed bound and do not count toward the 200 clean draws.
    rng = np.random.default_rng(20260810)
    worst = {"report": 0.0, "norm": 0.0, "monotone": 0.0, "density": 0.0,
             "swap": 0.0}
    worst_flagged = 0.0
    clean = flagged = 0
    while clean < 200:
        p = random_stable_params(rng, c_max=8)
        s = solve(p)
        rep = verify_solution(s, rng=rng)
        if s.warnings:
            flagged += 1
            worst_flagged = max(worst_flagged, rep.max_residual)
            continue
        clean += 1
        worst["report"] = max(worst["report"], rep.max_residual)
        worst["norm"] = max(worst["norm"],
                            abs(s.p_wait_zero + s.f_infinity.sum() - 1.0))
        xs = np.linspace(0.0, 3.0 * p.k, 40)
        totals = np.array([eval_cdf(s, x)[1] for x in xs])
        worst["monotone"] = max(worst["monotone"], float(-np.diff(totals).min()))
        worst["density"] = max(worst["density"],
                               max(-eval_density(s, x).sum() for x in xs[1:]))
        m = s.matrices
        d = m.delta[p.c - 1]
        lhs = class_swap_matrix(p) @ (m.b1 - p.mu1 * np.eye(p.c) - d)
        rhs = m.b2 - p.mu2 * np.eye(p.c) - d
        rel = np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1.0)
        worst["swap"] = max(worst["swap"], rel)
    # monotonicity carries the same numerical floor as the density bound
    ok = (worst["report"] < 1e-8 and worst["norm"] < 1e-10
          and worst["monotone"] < 1e-10 and worst["density"] < 1e-10
          and worst["swap"] < 1e-12 and worst_flagged < 1e-4)
    report(6, ok, f"{clean} clean draws c in [1,8]: residual report "
                  f"{worst['report']:.1e} (<1e-8), normalization {worst['norm']:.1e} "
                  f"(<1e-10), monotone slack {worst['monotone']:.1e} (<1e-10), "
                  f"density floor {worst['density']:.1e} (<1e-10), swap identity "
                  f"{worst['swap']:.1e} (<1e-12); {flagged} flagged ill-conditioned "
                  f"draws stayed under {max(worst_flagged, 0):.1e} (<1e-4)")
    assert ok


def test_criterion_7_qualitative_figure_claims():
    # (a) strong speedup pushes the density peak to or above the threshold
    s = solve(validate_params(3, 2.0, 0.3, 0.8, 5.0))
    xs = np.linspace(15.0 / 2000, 15.0, 2000)
    dens = np.array([eval_density(s, x).sum() for x in xs])
    peak_x = float(xs[dens.argmax()])
    ok_a = peak_x >= 2.0

    # (b) slowdown wait distribution is pointwise dominated by equal rates
    slow = solve(validate_params(3, 2.0, 0.8, 0.7, 5.0))
    ref = erlang_c(inspect_params(3, 2.0, 0.8, 0.8, 5.0))
    xs2 = np.linspace(0.01, 15.0, 1000)
    ok_b = all(eval_cdf(slow, x)[1] <= ref.cdf(x) + 1e-12 for x in xs2)

    # (c) mean wait versus arrival rate is not convex for small mu1
    from vqt.cli import main as cli_main
    import io, contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["sweep", "--c", "3", "--lambda", "2", "--mu1", "0.3",
                         "--mu2", "0.8", "--k", "5",
                         "--sweep", "lambda=0.2:2.3:40", "--metrics", "mean"])
    assert code == 0
    rows = [l.split(",") for l in buf.getvalue().strip().splitlines()[1:]]
    pts = [(float(r[0]), float(r[2])) for r in rows if r[1] == "ok"]
    ok_c = any(
        pts[i][1] > 0.5 * (pts[i - 1][1] + pts[i + 1][1]) + 1e-12
        for i in range(1, len(pts) - 1)
        if abs((pts[i + 1][0] - pts[i][0]) - (pts[i][0] - pts[i - 1][0])) < 1e-9
    )
    ok = ok_a and ok_b and ok_c
    report(7, ok, f"density peak at x={peak_x:.2f} (>=2): {ok_a}; slowdown CDF "
                  f"dominated: {ok_b}; mean-vs-lambda chord violation: {ok_c}")
    assert ok


def test_criterion_8_figure_data_regeneration():
    from vqt.cli import main as cli_main
    import io, contextlib
    t0 = time.perf_counter()
    runs = []
    for mu2 in ("0.7", "0.8", "0.9"):     # threshold-5 slowdown/speedup CDFs
        runs.append(["solve", "--c", "3", "--lambda", "2", "--mu1", "0.8",
                     "--mu2", mu2, "--k", "5", "--grid-max", "15"])
    for mu1 in ("0.3", "0.6", "0.67", "0.74", "0.8"):   # density shapes
        runs.append(["solve", "--c", "3", "--lambda", "2", "--mu1", mu1,
                     "--mu2", "0.8", "--k", "5", "--grid-max", "15"])
    for c, lam in (("2", "1.3333333333333333"), ("3", "2"), ("4", "2.6666666666666665")):
        runs.append(["solve", "--c", c, "--lambda", lam, "--mu1", "0.8",
                     "--mu2", "0.7", "--k", "5", "--grid-max", "15"])
    for mu1 in ("0.3", "0.6", "0.9"):     # mean-wait versus arrival rate
        runs.append(["sweep", "--c", "3", "--lambda", "2", "--mu1", mu1,
                     "--mu2", "0.8", "--k", "5",
                     "--sweep", "lambda=0.2:2.3:40", "--metrics", "mean"])
    outputs = []
    for argv in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(argv) == 0
        outputs.append(buf.getvalue())
    elapsed = time.perf_counter() - t0
    rows = sum(len(o.strip().splitlines()) - 1 for o in outputs)
    ok = elapsed < 5.0 and all(len(o.strip().splitlines()) > 10 for o in outputs)
    report(8, ok, f"{len(runs)} CLI runs regenerate all four figure datasets "
                  f"({rows} data rows) in {elapsed:.2f}s (<5s)")
    assert ok
