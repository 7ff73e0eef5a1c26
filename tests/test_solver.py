import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from vqt import model, numerics, solver
from vqt.errors import NumericalError, RowErrors, Singular, VqtError
from vqt.model import build_matrices, per_row, tilde_q, validate_params
from vqt.numerics import cond_1norm, inv
from vqt.reference import erlang_c_prob
from vqt.solver import (
    StationarySolution,
    _boundary,
    _c_hat_levels,
    _expand,
    _lower_convolution,
    _phi,
    _row_solve,
    eval_cdf,
    eval_density,
    mean_wait,
    particular_matrices,
    solve,
    verify_solution,
)
from vqt.spectral import build_spectral

from conftest import random_stable_params, solvent_expm as _expm
from test_numerics import reference_lu_solve

GOLDEN_TOL = 5e-5


@dataclasses.dataclass(frozen=True)
class AuxChain:
    """The twenty auxiliary matrices of the boundary-condition reduction.

    h1..h8 express F(k) and F'(k-) through F'(0); h9..h14 express F'(k+)
    through F(k), F'(0) and the tail constant; h15/h16 solve the glued system
    for F'(0); h19/h20 give the limit F(inf).  dm2 = (D_tilde_1 - D_tilde_2) M2
    is the threshold-memory factor behind h9, which the mixture's upper
    branch reuses; du_inv = (U1+ - U1-)^{-1} comes from the substitution
    behind h1/h5, and the mixture's lower branch reuses it.
    """

    h1: np.ndarray; h2: np.ndarray; h3: np.ndarray; h4: np.ndarray
    h5: np.ndarray; h6: np.ndarray; h7: np.ndarray; h8: np.ndarray
    h9: np.ndarray; h10: np.ndarray; h11: np.ndarray; h12: np.ndarray
    h13: np.ndarray; h14: np.ndarray; h15: np.ndarray; h16: np.ndarray
    h19: np.ndarray; h20: np.ndarray; dm2: np.ndarray; du_inv: np.ndarray


def _reference_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """reference_lu_solve, one matrix of a stack at a time."""
    if a.ndim == 2:
        return reference_lu_solve(a, b)
    return np.array([reference_lu_solve(*ab) for ab in zip(a, b)])


def reference_h_chain(
    params,
    matrices,
    spectral,
    m0: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
) -> AuxChain:
    """The paper's twenty-matrix reduction of the boundary conditions, which
    solve replaced by one bordered system: the reference for that system."""
    lam, k, c = per_row(params.lam, 2), params.k, params.c
    b1, b2 = matrices.b1, matrices.b2
    d1, d2 = matrices.d_tilde_1, matrices.d_tilde_2
    sp = spectral
    u1m, u1p, u2m = sp.u1_minus, sp.u1_plus, sp.u2_minus
    eye = np.eye(c)

    e_minus = _expm(sp.theta[..., :c], sp.phi[..., :c, :], sp.phi_minus_inv, k)
    e_plus = _expm(sp.theta[..., c:], sp.phi[..., c:, :], sp.phi_plus_inv, k)
    u1m_e_minus = u1m @ e_minus

    # h1, h5 and du_inv share du = U1+ - U1-: one solve with the three
    # right-hand sides side by side (back substitution, or the elimination
    # of an upper-triangular du, treats each column on its own)
    rhs = [e_plus - e_minus, u1p @ e_plus - u1m_e_minus, np.broadcast_to(eye, e_plus.shape)]
    blocks = _reference_solve(u1p - u1m, np.concatenate(rhs, -1))
    h1, h5, du_inv = blocks[..., :c], blocks[..., c:2 * c], blocks[..., 2 * c:]
    h2 = m0 @ (eye - e_minus + u1m @ h1)
    h3 = h1 + d1 @ h2
    h4 = -lam * b1 @ h2
    h6 = m0 @ (u1m_e_minus - u1m @ h5)
    h7 = h5 - d1 @ h6
    h8 = lam * b1 @ h6

    d1_inv, d2_inv = matrices.d_tilde_1_inv, matrices.d_tilde_2_inv
    dm2 = (d1 - d2) @ m2
    h9 = dm2 @ u2m + d1 @ dm2
    h10 = u2m - lam * (eye - b2 @ d2_inv) @ h9
    h11 = m1 @ u2m + d2_inv @ h9
    bridge = b1 @ d1_inv @ d2          # recurring factor B1 D1^{-1} D2
    h12 = h10 + lam * (bridge - b2) @ h11
    h13 = d2 @ h11
    h14 = lam * bridge @ h11

    # Sign convention: h15 carries a leading minus (and h19 compensates), so
    # the boundary level rows come out nonpositive and the tail constant b_c
    # negative.  Only products of the pair are observable.
    core = h7 - h7 @ h9 - h3 @ h12 + h13
    h15 = -u2m @ inv(core)
    h16 = (h14 + h4 @ h12 - h8 + h8 @ h9) @ _reference_solve(u2m, -h15)

    h17 = d2 @ m1 - lam * h3 @ (bridge - b2) @ m1
    h18 = lam * bridge @ m1 + lam * h4 @ (bridge - b2) @ m1
    h19 = -(eye + h15 @ h17)
    h20 = h16 @ h17 - h18

    return AuxChain(h1, h2, h3, h4, h5, h6, h7, h8, h9, h10,
                    h11, h12, h13, h14, h15, h16, h19, h20, dm2, du_inv)


def paper_particular_matrices(p, m, sp):
    """particular_matrices with the paper's unit null-mode corrections, the
    M0 and M1 that its auxiliary matrices are printed with."""
    m2 = particular_matrices(p, m, sp)[2]
    e = np.eye(p.c)
    return (inv(p.lam * (m.b1 - m.d_tilde_1) + np.diag(e[p.c - 1])),
            inv(p.lam * (m.b2 - m.d_tilde_2) + np.diag(e[0])), m2)


def reference_chain_solve(p):
    """(the solution, the chain) of one point by the twenty-matrix route:
    the top level from inner_top = lam I + Delta_{c-1} - h16 - lam [0 |
    C_hat_{c-2}] by the pivot-tested inv, which raises Singular, and w =
    (F'(0) + alpha0 M0 U1-) (U1+ - U1-)^{-1}.  The solution is checked
    neither for a negative pi nor for finiteness."""
    m = build_matrices(p)
    sp = build_spectral(p, m)
    m0, m1, m2 = paper_particular_matrices(p, m, sp)
    with np.errstate(over="ignore", invalid="ignore"):
        h = reference_h_chain(p, m, sp, m0, m1, m2)
    c, lam, psi_c = p.c, p.lam, np.eye(p.c)[0]
    c_hat = _c_hat_levels(p, m, [])
    inner_top = lam * np.eye(c) + m.delta[c - 1] - h.h16
    if c > 1:
        inner_top[:, 1:] -= lam * c_hat[c - 2]
    rows = [psi_c @ (-h.h15 @ inv(inner_top))]
    for level in reversed(c_hat):
        rows.insert(0, rows[0] @ level)
    total = psi_c @ h.h19 @ np.ones(c) + rows[c - 1] @ h.h20 @ np.ones(c)
    for row in rows:
        total += row.sum()
    b_c = 1.0 / total
    pi_levels = tuple(b_c * row for row in rows)

    pi_top = pi_levels[-1]
    f_prime_0 = pi_top @ h.h16 - b_c * (psi_c @ h.h15)
    f_at_k = f_prime_0 @ h.h3 + pi_top @ h.h4
    f_prime_at_k = f_prime_0 @ h.h7 + pi_top @ h.h8
    f_infinity = pi_top @ h.h20 + b_c * (psi_c @ h.h19)
    d1, d2, d1_inv, d2_inv = m.d_tilde_1, m.d_tilde_2, m.d_tilde_1_inv, m.d_tilde_2_inv
    alpha0 = f_prime_0 @ d1 - lam * pi_top @ m.b1
    alpha1 = alpha0 @ d1_inv @ d2 - lam * f_at_k @ (m.b1 @ d1_inv @ d2 - m.b2)
    alpha2 = alpha1 @ d2_inv - f_prime_at_k + lam * f_at_k @ (np.eye(c) - m.b2 @ d2_inv)
    a0m0 = alpha0 @ m0
    w = (f_prime_0 + a0m0 @ sp.u1_minus) @ h.du_inv
    lower = np.concatenate([(-w - a0m0) @ sp.phi_minus_inv, w @ sp.phi_plus_inv])
    mix = _expand(p, m, sp, lower, a0m0, f_at_k, f_infinity, alpha2, h.dm2)
    sol = StationarySolution(
        params=p, matrices=m, spectral=sp, pi_levels=pi_levels, b_c=b_c,
        f_prime_0=f_prime_0, alpha0=alpha0, alpha1=alpha1, m1=m1, mixture=mix)
    return sol, h


def _hat_i(rows):
    """The shift (0 | I): rows x (rows + 1)."""
    out = np.zeros((rows, rows + 1))
    out[:, 1:] = np.eye(rows)
    return out


def _matrix_chain_route(p):
    """pi levels, b_c and F's mixture by a longer route around solve's
    bordered system (solver._boundary, shared): every level product
    C_hat_{c-2} ... C_hat_n as a full matrix, the level matrices through 0/1
    shift products, solved by solve's row solve (solver._row_solve, shared),
    and the lower weights through w = q e^{-U1+ k} and back through the
    eigenbases."""
    m = build_matrices(p)
    sp = build_spectral(p, m)
    m0, m1, m2 = particular_matrices(p, m, sp)
    c, lam = p.c, p.lam
    c_hat = [None] * c
    if c > 1:
        c_hat[0] = m.b_hat[0] / lam
        for n in range(1, c - 1):
            c_hat[n] = _row_solve(lam * (np.eye(n + 1) - c_hat[n - 1] @ _hat_i(n)) + m.delta[n],
                                  m.b_hat[n], "level matrix")
    slope_0 = lam * np.eye(c) + m.delta[c - 1]
    if c > 1:
        slope_0 = slope_0 - lam * c_hat[c - 2] @ _hat_i(c - 1)
    x, f_infinity, at, dm2 = _boundary(p, m, sp, m0, m1, m2, slope_0)
    level_product = [None] * c
    level_product[c - 1] = np.eye(c)
    for n in range(c - 2, -1, -1):
        level_product[n] = level_product[n + 1] @ c_hat[n]
    rows = [x[:c] @ level_product[n] for n in range(c)]
    b_c = 1.0 / (f_infinity.sum() + sum(row.sum() for row in rows))
    pi_levels = [b_c * row for row in rows]

    x = b_c * x
    v = at(x)
    w = x[c:] @ _expm(-sp.theta[c:], sp.phi[c:], sp.phi_plus_inv, p.k)
    a0m0 = v["alpha0_m0"]
    lower = np.concatenate([(-w - a0m0) @ sp.phi_minus_inv, w @ sp.phi_plus_inv])
    mix = _expand(p, m, sp, lower, a0m0, v["f_at_k"], v["alpha1"] @ m1 - b_c * np.eye(c)[0],
                  v["alpha2"], dm2)
    return pi_levels, b_c, mix


class TestParticularMatrices:
    def test_scalar_case(self):
        p = validate_params(1, 1.0, 2.0, 2.8, 1.0)
        m = build_matrices(p)
        sp = build_spectral(p, m)
        m0, m1, m2 = particular_matrices(p, m, sp)
        # (lam*(mu1-mu1) + scale^2)^{-1}, scale = max(lam, c mu1, c mu2) = 2.8
        assert m0[0, 0] == pytest.approx(1.0 / 2.8**2)

    def test_multiply_back(self, two_server_params):
        p = two_server_params
        m = build_matrices(p)
        sp = build_spectral(p, m)
        m0, m1, m2 = particular_matrices(p, m, sp)
        lam, c = p.lam, p.c
        a0 = lam * (m.b1 - m.d_tilde_1) + p.scale**2 * np.diag(np.eye(c)[c - 1])
        a1 = lam * (m.b2 - m.d_tilde_2) + p.scale**2 * np.diag(np.eye(c)[0])
        a2 = (c * p.mu1 + lam) * (c * p.mu1 * np.eye(c) - m.d_tilde_2) + lam * m.b2
        for a, minv in ((a0, m0), (a1, m1), (a2, m2)):
            assert np.abs(a @ minv - np.eye(c)).max() < 1e-10

    def test_m2_conditioning_near_exclusion(self):
        # condition number decreases moving away from lambda = c*(mu2 - mu1)
        conds = []
        for eps in (1e-3, 1e-1):
            lam = 2 * (1.1 - 0.4) + eps
            p = validate_params(2, lam, 0.4, 1.1, 1.0)
            m = build_matrices(p)
            sp = build_spectral(p, m)
            _, _, m2 = particular_matrices(p, m, sp)
            a2 = (2 * p.mu1 + p.lam) * (2 * p.mu1 * np.eye(2) - m.d_tilde_2) + p.lam * m.b2
            conds.append(cond_1norm(a2, m2))
        assert conds[0] > conds[1]


class TestHChain:
    """The paper's auxiliary matrices (reference_h_chain) read with solve's
    pi, b_c and F'."""

    def test_worked_example_slope_relation(self, two_server_solution):
        # F'(0) = pi_1 H16 - b_c psi_c H15 with the printed coefficients
        s = two_server_solution
        p, m, sp = s.params, s.matrices, s.spectral
        h = reference_h_chain(p, m, sp, *paper_particular_matrices(p, m, sp))
        h16 = h.h16
        assert h16[0, 0] == pytest.approx(-1.42, abs=5e-3)
        assert h16[1, 0] == pytest.approx(-2.34, abs=5e-3)
        assert h16[0, 1] == pytest.approx(-0.95, abs=5e-3)
        assert h16[1, 1] == pytest.approx(-1.09, abs=5e-3)
        coeff = -(np.eye(p.c)[0] @ h.h15)
        assert coeff[0] == pytest.approx(-0.18286, abs=GOLDEN_TOL)
        assert coeff[1] == pytest.approx(-0.16026, abs=GOLDEN_TOL)
        rebuilt = (s.pi(0, 1) * h16[0] + s.pi(1, 0) * h16[1]
                   + s.b_c * coeff)
        assert np.abs(rebuilt - s.f_prime_0).max() < 1e-12

    def test_scalar_collapse(self):
        # c = 1: H1 = (e^{t+ k} - e^{t- k})/(t+ - t-), H3 = H1 + mu1 H2
        p = validate_params(1, 1.0, 2.0, 2.8, 0.7)
        m = build_matrices(p)
        sp = build_spectral(p, m)
        m0, m1, m2 = paper_particular_matrices(p, m, sp)
        h = reference_h_chain(p, m, sp, m0, m1, m2)
        tp, tm = sp.u1_plus[0, 0], sp.u1_minus[0, 0]
        h1_expected = (math.exp(tp * p.k) - math.exp(tm * p.k)) / (tp - tm)
        assert h.h1[0, 0] == pytest.approx(h1_expected, rel=1e-12)
        assert h.h3[0, 0] == pytest.approx(h.h1[0, 0] + p.mu1 * h.h2[0, 0], rel=1e-12)

    def test_threshold_slope_both_routes(self, two_server_solution):
        # F'(k) from the below-threshold route equals the above-threshold
        # route through h12/h13/h14 (b_c enters sign-flipped by convention).
        s = two_server_solution
        p, m, sp = s.params, s.matrices, s.spectral
        h = reference_h_chain(p, m, sp, *paper_particular_matrices(p, m, sp))
        left = s.f_prime_0 @ h.h7 + s.pi_levels[-1] @ h.h8
        rhs = (eval_cdf(s, p.k)[0] @ h.h12
               + s.b_c * np.eye(p.c)[0] @ s.spectral.u2_minus
               - s.f_prime_0 @ h.h13
               + s.pi_levels[-1] @ h.h14)
        lhs = left @ (np.eye(2) - h.h9)
        assert np.abs(lhs - rhs).max() < 1e-8
        assert np.abs(left - eval_density(s, p.k)).max() < 1e-12


class TestSolve:
    @pytest.mark.parametrize("c, lu_solves, lu_factors", [(3, 5, 3), (8, 5, 3), (16, 5, 0)])
    def test_lu_calls_per_solve(self, monkeypatch, c, lu_solves, lu_factors):
        # B1, B2 and the three particular matrices; the boundary conditions
        # and the level recursion take LAPACK solves and no inv, and psi is
        # built for the c decaying beta roots only
        calls = Counter()

        def counted(name):
            f = getattr(numerics, name)

            def call(*args):
                calls[name] += 1
                return f(*args)
            return call

        counted_inv = counted("inv")
        # model binds inv; solver inverts through numerics.inv_family, which calls it
        for module in (model, numerics):
            monkeypatch.setattr(module, "inv", counted_inv)
        monkeypatch.setattr(numerics, "lu_factor", counted("lu_factor"))
        s = solve(validate_params(c, 0.7 * c, 0.8, 1.0, 0.5))
        assert (calls["inv"], calls["lu_factor"]) == (lu_solves, lu_factors)
        assert s.spectral.psi.shape[-2] == c

    def test_worked_example_golden_values(self, two_server_solution):
        s = two_server_solution
        assert s.pi(0, 0) == pytest.approx(0.0224116, abs=GOLDEN_TOL)
        assert s.pi(0, 1) == pytest.approx(0.0108889, abs=GOLDEN_TOL)
        assert s.pi(1, 0) == pytest.approx(0.0435035, abs=GOLDEN_TOL)
        assert s.b_c == pytest.approx(-0.827051, abs=GOLDEN_TOL)
        assert np.allclose(s.f_prime_0, [0.03397, 0.07481], atol=GOLDEN_TOL)
        assert np.allclose(eval_cdf(s, s.params.k)[0], [0.02202, 0.03179], atol=GOLDEN_TOL)
        assert np.allclose(eval_density(s, s.params.k), [0.0679, 0.0628], atol=GOLDEN_TOL)
        assert np.allclose(s.f_infinity, [0.82705, 0.09615], atol=GOLDEN_TOL)

    def test_single_server_mm1_limit(self):
        s = solve(validate_params(1, 1.0, 2.0, 2.000001, 1.0))
        assert s.pi(0, 0) == pytest.approx(0.5, abs=1e-5)

    def test_balance_equations(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_stable_params(rng)
            s = solve(p)
            worst = 0.0
            for n in range(p.c - 1):
                for i in range(n + 1):
                    j = n - i
                    lhs = (p.lam + i * p.mu1 + j * p.mu2) * s.pi(i, j)
                    rhs = ((i + 1) * p.mu1 * s.pi(i + 1, j)
                           + (j + 1) * p.mu2 * s.pi(i, j + 1))
                    if i > 0:
                        rhs += p.lam * s.pi(i - 1, j)
                    worst = max(worst, abs(lhs - rhs))
            assert worst < 1e-10

    def test_normalization(self, three_server_solution):
        s = three_server_solution
        total = s.p_wait_zero + s.f_infinity.sum()
        assert abs(total - 1.0) < 1e-10

    def test_pi_nonnegative(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            s = solve(random_stable_params(rng))
            assert min(level.min() for level in s.pi_levels) > -1e-12

    def test_growth_overflow_raises_instead_of_nan(self):
        # theta_max*k = 734: e^{theta_max k} overflows, so the mixture's
        # growing terms cannot be evaluated at k.
        p = validate_params(8, 11.63931848796125, 1.7518072811296523,
                            1.9476696008438312, 67.57945954330552)
        with np.errstate(all="ignore"), \
                pytest.raises(NumericalError, match=r"theta_max\*k = 734\.1"):
            solve(p)

    def test_overflowed_rates_name_no_growth_exponent(self):
        # the products of rates near 1e160 overflow, and theta_max*k is NaN:
        # the error says only that the solution is not finite
        p = validate_params(3, 2e160, 1.5e160, 1e160, 1e-160)
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as exc:
            solve(p)
        assert type(exc.value) is NumericalError
        assert str(exc.value) == "non-finite solution"

    @pytest.mark.parametrize("factor", [1e-6, 1e-9, 1e-12])
    def test_tiny_rates_solve_as_unit_time(self, factor):
        # rates times s and k over s give W over s: the null-space test is
        # relative to the rate scale, so a tiny time unit solves as unit time
        unit = solve(validate_params(2, 2.0, 0.75, 1.12, 0.45))
        sol = solve(validate_params(2, 2.0 * factor, 0.75 * factor, 1.12 * factor,
                                    0.45 / factor))
        xs = np.array([0.0, 0.1, 0.45, 1.0, 3.0])
        assert mean_wait(sol) * factor == pytest.approx(mean_wait(unit), rel=1e-12)
        assert eval_cdf(sol, xs / factor)[1] == pytest.approx(eval_cdf(unit, xs)[1], rel=1e-12)

    @pytest.mark.parametrize("factor", [1e3, 1e6, 1e9, 1e12])
    def test_large_rates_solve_as_unit_time(self, factor):
        # the null-mode corrections of M0 and M1 grow with the rates as
        # lam (B - D_tilde) does; with a unit correction E[W] was off by
        # 1.4e-6 at 1e6 and the solve raised Singular from 1e8 up
        unit = solve(validate_params(2, 2.0, 0.75, 1.12, 0.45))
        sol = solve(validate_params(2, 2.0 * factor, 0.75 * factor, 1.12 * factor,
                                    0.45 / factor))
        xs = np.array([0.0, 0.1, 0.45, 1.0, 3.0])
        assert mean_wait(sol) * factor == pytest.approx(mean_wait(unit), rel=1e-13)
        assert eval_cdf(sol, xs / factor)[1] == pytest.approx(eval_cdf(unit, xs)[1], rel=1e-13)


class TestBoundaryRoute:
    def test_matches_matrix_chain_route(self):
        # Measured on 160 warning-free draws (seeds 0-3): pi within 3.3e-16,
        # b_c within 4.5e-16 relative, F within 3.4e-13 on [0, 4k].
        rng = np.random.default_rng(41)
        done = 0
        while done < 30:
            p = random_stable_params(rng)
            s = solve(p)
            if s.warnings:
                continue
            done += 1
            pi_levels, b_c, mix = _matrix_chain_route(p)
            for ref, got in zip(pi_levels, s.pi_levels):
                assert np.abs(ref - got).max() <= 1e-15, p
            assert abs(b_c - s.b_c) <= 4e-15 * abs(b_c), p
            xs = np.linspace(0.0, 4 * p.k, 41)
            assert np.abs(mix.components(xs) - s.mixture.components(xs)).max() <= 5e-12, p

    def test_lower_weight_pivots_tested_by_column(self):
        # w (U1+ - U1-) = rhs: the pivot 25.6 at column 13 is below 1e-14 of
        # that column's scale (eigenbasis conditions 2e18 and 1e26); solved
        # anyway, the max residual comes out at 1e2
        p = validate_params(14, 28.49024070017494, 0.20780291752566302,
                            2.9643008999165397, 2.870056819113162)
        with pytest.raises(Singular, match=r"^pivot 2\.558e\+01 .* at column 13$"):
            solve(p)

    def test_growth_case_lower_weights_clean(self):
        # The pivoted solve of the transposed U1+ - U1- gave w errors of
        # 1e5 here: components of -1.0e5 at x = k, P(W <= k) = 1.43 and a
        # max residual of 5.2e5, on an exit-0 solve.
        p = validate_params(10, 6.204769671078709, 0.7254531982879604,
                            0.9047381403776253, 10.731602405335162)
        s = solve(p)
        assert verify_solution(s, rng=0).max_residual <= 1e-8
        comps, totals = eval_cdf(s, np.linspace(0.0, 4 * p.k, 41))
        assert comps.min() >= -1e-12
        assert totals.max() <= 1 + 1e-12


    def test_matches_reference_chain(self):
        # Against the twenty-matrix route on warning-free draws.  Measured on
        # 160 of them (seeds 0-3): pi within 6.4e-14, F within 4.7e-10 on
        # [0, 4k]; 30 at seed 43: 7.0e-15 and 1.9e-13.
        rng = np.random.default_rng(43)
        done = 0
        while done < 30:
            p = random_stable_params(rng)
            s = solve(p)
            if s.warnings:
                continue
            done += 1
            ref, _ = reference_chain_solve(p)
            for want, got in zip(ref.pi_levels, s.pi_levels):
                assert np.abs(want - got).max() <= 1e-13, p
            xs = np.linspace(0.0, 4 * p.k, 41)
            assert np.abs(ref.mixture.components(xs)
                          - s.mixture.components(xs)).max() <= 1e-9, p

    def test_chain_clean_draws_stay_clean(self):
        # Growth draws (k up to 100): every draw that the twenty-matrix route
        # solves clean, the bordered system solves clean too.
        clean = lambda s: (min(level.min() for level in s.pi_levels) >= -1e-8
                           and verify_solution(s, rng=0).max_residual <= 1e-8)
        for p in _growth_draws(60, seed=18):
            try:
                with np.errstate(all="ignore"):
                    ref_clean = clean(reference_chain_solve(p)[0])
            except VqtError:
                ref_clean = False
            if ref_clean:
                assert clean(solve(p)), p

    def test_exactly_singular_system_raises_per_row(self):
        a = np.array([[[2.0, 0.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2))])
        b = np.array([3.0, 1.0])
        assert _row_solve(a[0], b[None], "boundary system")[0] @ a[0] == pytest.approx(b)
        with pytest.raises(RowErrors) as exc:
            _row_solve(a, b[None], "boundary system")
        assert sorted(exc.value.errors) == [1, 2]
        assert all(isinstance(e, Singular) for e in exc.value.errors.values())
        with pytest.raises(Singular, match="boundary system is singular"):
            _row_solve(a[1], b[None], "boundary system")


def _growth_draws(n, seed, c_max=8):
    """n valid draws with c <= c_max, mu1 and mu2 ~ U(0.2, 3), lam ~ U(0.05,
    0.97) c mu2 and k log-uniform in [0.01, 100]."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < n:
        c = int(rng.integers(1, c_max + 1))
        mu1, mu2 = rng.uniform(0.2, 3.0, size=2).tolist()
        lam = float(rng.uniform(0.05, 0.97)) * c * mu2
        k = float(10.0 ** rng.uniform(-2.0, 2.0))
        try:
            out.append(validate_params(c, lam, mu1, mu2, k))
        except VqtError:
            pass
    return out


def _level_solves(p):
    """(B_hat_n, T_n, C_hat_n) for n = 1 .. c - 2, T_n built from solve's
    own C_hat_{n-1}: T_n = lam (I - [0 | C_hat_{n-1}]) + Delta_n."""
    m = build_matrices(p)
    c_hat = _c_hat_levels(p, m, [])
    for n in range(1, p.c - 1):
        shifted = np.zeros((n + 1, n + 1))
        shifted[:, 1:] = c_hat[n - 1]
        yield m.b_hat[n], p.lam * (np.eye(n + 1) - shifted) + m.delta[n], c_hat[n]


class TestLevelRecursion:
    # seeded draws with c <= 16, and the scan lam = 0.7c at c = 24
    POINTS = _growth_draws(80, seed=21, c_max=16) + [validate_params(24, 0.7 * 24, 0.8, 1.0, 0.5)]

    def test_levels_match_the_inv_route(self):
        # C_hat_n = B_hat_n T_n^-1 by numerics.inv; measured on the 1600
        # draws of aim 3, within 6.7e-16 of the level's largest entry
        for p in self.POINTS:
            for b_hat, t, level in _level_solves(p):
                ref = b_hat @ inv(t)
                assert np.abs(level - ref).max() <= 1e-15 * np.abs(ref).max(), p

    def test_guard_rejects_as_the_diagonal_pivot_test(self):
        # T_1's corner lam (1 - 0) + Delta_1[0, 0] cancels to 0 on one row
        lams = (1.4, 2.1, 2.8)
        stack = solver._stack([validate_params(4, lam, 0.8, 1.0, 0.5) for lam in lams])
        single = validate_params(4, lams[1], 0.8, 1.0, 0.5)
        errors = []
        for p, corner in ((stack, (1, 0, 0)), (single, (0, 0))):
            m = build_matrices(p)
            delta = np.array(np.broadcast_to(m.delta[1], np.shape(p.lam) + (2, 2)))
            delta[corner] = -lams[1]
            m = dataclasses.replace(m, delta=(m.delta[0], delta) + m.delta[2:])
            with pytest.raises((Singular, RowErrors)) as exc:
                _c_hat_levels(p, m, [])
            errors.append(exc.value)
        assert type(errors[0]) is RowErrors and list(errors[0].errors) == [1]
        assert type(errors[1]) is Singular
        assert str(errors[0].errors[1]) == str(errors[1]) \
            == "pivot 0.000e+00 below 1e-14 of its row scale at column 0"

    def test_level_matrices_strictly_row_diagonally_dominant(self):
        # so the scaled diagonal pivot test that guards each level cannot fire
        for p in self.POINTS:
            for _, t, _ in _level_solves(p):
                magnitude = np.abs(t)
                assert (2.0 * magnitude.diagonal() > magnitude.sum(axis=1)).all(), p


class TestEvalCdf:
    def test_at_zero(self, two_server_solution):
        comps, total = eval_cdf(two_server_solution, 0.0)
        assert np.abs(comps).max() == 0.0
        assert total == pytest.approx(0.0768040, abs=GOLDEN_TOL)

    def test_at_threshold(self, two_server_solution):
        comps, _ = eval_cdf(two_server_solution, 0.45)
        assert np.allclose(comps, [0.02202, 0.03179], atol=GOLDEN_TOL)

    def test_far_tail(self, two_server_solution):
        comps, _ = eval_cdf(two_server_solution, 40.0)
        assert np.allclose(comps, [0.82705, 0.09615], atol=1e-4)

    def test_monotone_total_and_components(self, three_server_solution):
        xs = np.linspace(0.0, 30.0, 400)
        comps = np.array([eval_cdf(three_server_solution, x)[0] for x in xs])
        totals = np.array([eval_cdf(three_server_solution, x)[1] for x in xs])
        assert (np.diff(totals) > -1e-12).all()
        assert (np.diff(comps, axis=0) > -1e-12).all()

    def test_continuity_at_threshold(self, two_server_solution):
        k = two_server_solution.params.k
        for h in (1e-4, 1e-6):
            lo = eval_cdf(two_server_solution, k - h)[0]
            hi = eval_cdf(two_server_solution, k + h)[0]
            dlo = eval_density(two_server_solution, k - h)
            dhi = eval_density(two_server_solution, k + h)
            assert np.abs(hi - lo).max() < 0.2 * h
            assert np.abs(dhi - dlo).max() < 0.5 * h


class TestEvalDensity:
    def test_at_zero_limit(self, two_server_solution):
        assert np.allclose(eval_density(two_server_solution, 1e-13),
                           [0.03397, 0.07481], atol=GOLDEN_TOL)

    def test_at_threshold(self, two_server_solution):
        assert np.allclose(eval_density(two_server_solution, 0.45),
                           [0.0679, 0.0628], atol=GOLDEN_TOL)

    def test_finite_difference_of_cdf(self, two_server_solution):
        s = two_server_solution
        k, h = s.params.k, 1e-6
        for x in np.linspace(0.01, 3 * k, 50):
            if abs(x - k) < 10 * h:
                continue
            fd = (eval_cdf(s, x + h)[0] - eval_cdf(s, x - h)[0]) / (2 * h)
            ref = eval_density(s, x)
            assert np.abs(fd - ref).max() < 1e-4 * max(np.abs(ref).max(), 1e-3)

    def test_nonnegative_on_grid(self, three_server_solution):
        s = three_server_solution
        horizon = 20.0 * max(s.params.k, 1.0 / (3 * 0.7 - 2.0))
        for x in np.linspace(1e-9, horizon, 1000):
            assert eval_density(s, x).sum() > -1e-10


class TestMeanWait:
    def test_mm1_reduction(self):
        s = solve(validate_params(1, 1.0, 2.0, 2.000001, 1.0))
        assert mean_wait(s) == pytest.approx(0.5, abs=1e-6)

    def test_against_quadrature(self, two_server_solution):
        s = two_server_solution
        k = s.params.k
        beta0 = abs(s.params.lam - s.params.c * s.params.mu2)
        upper = k + 80.0 / beta0
        got = mean_wait(s)
        ref = quad(lambda x: x * eval_density(s, x).sum(), 0.0, k,
                   epsabs=1e-12, epsrel=1e-12)[0]
        ref += quad(lambda x: x * eval_density(s, x).sum(), k, upper,
                    epsabs=1e-10, epsrel=1e-10, limit=400)[0]
        assert got == pytest.approx(ref, abs=1e-6)

    def test_threshold_to_zero_near_equal_rates(self):
        # with mu2 ~ mu1 the threshold is immaterial and the plain M/M/c
        # mean with rate mu2 must emerge
        s = solve(validate_params(2, 1.0, 1.0, 1.0 + 1e-5, 1e-6))
        c_prob = erlang_c_prob(2, 1.0 / (1.0 + 1e-5))
        assert mean_wait(s) == pytest.approx(c_prob / (2 * (1 + 1e-5) - 1), abs=1e-4)

    def test_threshold_to_infinity_gives_pre_threshold_erlang(self):
        # lam < c*mu1 and k huge: hardly anyone crosses the threshold, so
        # the plain M/M/c law at rate mu1 takes over
        s = solve(validate_params(2, 1.0, 0.9, 1.2, 25.0))
        c_prob = erlang_c_prob(2, 1.0 / 0.9)
        assert mean_wait(s) == pytest.approx(c_prob / (2 * 0.9 - 1.0), abs=1e-6)

    def test_non_finite_mean_raises(self):
        # k e^{theta k} overflows before its weight, about e^{-theta k},
        # scales it: the mean was NaN (ROADMAP item 1's input)
        s = solve(validate_params(8, 0.11411819831714975, 0.01696416629872374,
                                  0.01658295957743674, 6638.120385302224))
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as got:
            mean_wait(s)
        assert type(got.value) is NumericalError and str(got.value) == "non-finite mean"


class TestScalarMixture:
    def test_reproduces_cdf(self, two_server_solution):
        mix = two_server_solution.mixture
        k = two_server_solution.params.k
        for x in (0.1, k, 2 * k, 10.0):
            a = mix.components(x)
            b = eval_cdf(two_server_solution, x)[0]
            assert np.abs(a - b).max() < 1e-9

    def test_reproduces_cdf_random(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            s = solve(random_stable_params(rng, c_max=5))
            mix = s.mixture
            for x in np.linspace(0.0, 4 * s.params.k, 25):
                assert np.abs(mix.components(x) - eval_cdf(s, x)[0]).max() < 1e-9

    def test_rates_are_spectrum(self, two_server_solution):
        s = two_server_solution
        mix = s.mixture
        assert np.allclose(mix.lower_rates, s.spectral.theta)
        tail_rates = mix.upper_rates
        assert np.allclose(tail_rates[:2], s.spectral.beta[:2])
        assert np.allclose(sorted(tail_rates[2:]), [-1.87, -1.50])

    def test_tail_constant_is_limit(self, two_server_solution):
        mix = two_server_solution.mixture
        assert np.allclose(mix.upper_constant, two_server_solution.f_infinity, atol=0)


@pytest.mark.parametrize("c", [1, 2, 8, 16])
class TestArrayEvaluators:
    @staticmethod
    def solution(c):
        return solve(validate_params(c, 0.7 * c, 0.8, 1.0, 0.5))

    def test_rows_equal_one_point_calls(self, c):
        s = self.solution(c)
        k = s.params.k
        xs = np.unique(np.concatenate([np.linspace(0.0, 10 * k, 41), [k]]))
        assert xs[0] == 0.0 and k in xs
        comps, totals = eval_cdf(s, xs)
        assert np.array_equal(comps, np.array([eval_cdf(s, x)[0] for x in xs]))
        assert np.array_equal(totals, np.array([eval_cdf(s, x)[1] for x in xs]))
        assert np.array_equal(eval_density(s, xs),
                              np.array([eval_density(s, x) for x in xs]))
        assert np.array_equal(tilde_q(xs, s.matrices),
                              np.array([tilde_q(x, s.matrices) for x in xs]))

    def test_shapes(self, c):
        s = self.solution(c)
        comps, total = eval_cdf(s, 0.3)
        assert comps.shape == (c,) and isinstance(total, float)
        assert eval_density(s, 0.3).shape == (c,)
        assert tilde_q(0.3, s.matrices).shape == (c, c)
        xs = np.linspace(0.0, 2.0, 7)
        comps, totals = eval_cdf(s, xs)
        assert comps.shape == (7, c) and totals.shape == (7,)
        assert eval_density(s, xs).shape == (7, c)
        assert tilde_q(xs, s.matrices).shape == (7, c, c)

    def test_negative_entry_raises(self, c):
        s = self.solution(c)
        xs = np.array([0.0, 0.2, -1e-12, 1.0])
        with pytest.raises(ValueError):
            eval_cdf(s, xs)
        with pytest.raises(ValueError):
            eval_density(s, xs)
        with pytest.raises(ValueError):
            tilde_q(xs, s.matrices)

    def test_nan_raises(self, c):
        s = self.solution(c)
        for x in (float("nan"), np.float64("nan"), np.array([0.0, np.nan, 1.0])):
            with pytest.raises(ValueError, match="x must be >= 0"):
                eval_cdf(s, x)
            with pytest.raises(ValueError, match="x must be >= 0"):
                eval_density(s, x)

    def test_mixture_methods_check_like_the_functions(self, c):
        s = self.solution(c)
        evaluators = (s.mixture.components, s.mixture.density,
                      lambda x: eval_cdf(s, x), lambda x: eval_density(s, x))
        for x in (-1.0, float("nan"), np.array([0.0, -1e-300, 1.0]),
                  np.array([[0.5], [np.nan]])):
            for evaluate in evaluators:
                with pytest.raises(ValueError, match=r"^x must be >= 0$"):
                    evaluate(x)


class TestVerifySolution:
    def test_worked_example_residuals(self, two_server_solution):
        rep = verify_solution(two_server_solution, rng=0)
        assert rep.max_residual < 1e-8

    def test_three_server_residuals(self, three_server_solution):
        rep = verify_solution(three_server_solution, rng=0)
        assert rep.max_residual < 1e-8

    def test_perturbed_tail_constant_breaks_normalization(self, two_server_solution):
        s = two_server_solution
        perturbed = s.b_c + 1e-3
        residual = abs(
            -perturbed * np.eye(s.params.c)[0].sum()
            + (s.alpha1 @ s.m1).sum() + s.p_wait_zero - 1.0
        )
        assert residual > 1e-5

    @pytest.mark.parametrize("args", [(3, 2.0, 0.8, 0.7, 5.0), (8, 5.6, 0.8, 1.0, 0.5)])
    def test_exact_convolution_vs_quadrature(self, args):
        s = solve(validate_params(*args))
        m, k = s.matrices, s.params.k
        for x in (0.05 * k, 0.3 * k, 0.71 * k, k):
            exact = _lower_convolution(s, x)
            ref = np.array([
                quad(lambda y: (eval_cdf(s, y)[0] @ m.b1 @ tilde_q(x - y, m))[j],
                     0.0, x, epsabs=1e-16, epsrel=1e-13)[0]
                for j in range(s.params.c)
            ])
            assert np.abs(exact - ref).max() < 1e-11 * np.abs(ref).max()

    def test_wrong_mixture_row_breaks_integro_identity(self, two_server_solution):
        s = two_server_solution
        mix = s.mixture
        base = verify_solution(s, rng=0).residuals["integro_differential"]
        assert base < 1e-14
        for i in np.flatnonzero(mix.lower_rates):   # rate-0 rows cancel in F
            weights = mix.lower_weights.copy()
            weights[i] *= 1.001
            wrong = dataclasses.replace(
                s, mixture=dataclasses.replace(mix, lower_weights=weights))
            bad = verify_solution(wrong, rng=0).residuals["integro_differential"]
            assert bad > 1e4 * base


def _reference_balance_residual(sol):
    p, worst = sol.params, 0.0
    for n in range(p.c - 1):           # interior levels i + j < c - 1
        for i in range(n + 1):
            j = n - i
            lhs = (p.lam + i * p.mu1 + j * p.mu2) * sol.pi(i, j)
            rhs = (i + 1) * p.mu1 * sol.pi(i + 1, j) + (j + 1) * p.mu2 * sol.pi(i, j + 1)
            if i > 0:
                rhs += p.lam * sol.pi(i - 1, j)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _reference_integro_residual(sol, xs):
    m, lam = sol.matrices, sol.params.lam
    pi_top = sol.pi_levels[-1]
    rhs = (lam * eval_cdf(sol, xs)[0] - lam * _lower_convolution(sol, xs) + sol.f_prime_0
           - lam * pi_top @ m.b1 @ (np.eye(sol.params.c) - tilde_q(xs, m))
           @ m.d_tilde_1_inv)
    return float(np.max(np.abs(eval_density(sol, xs) - rhs)))


def reference_verify(sol, rng=None):
    """The residual report as first written, one evaluator call per point
    and a double loop over the balance equations.  ``verify_solution`` must
    match it bit for bit."""
    rng = np.random.default_rng(rng)
    p, m, sp = sol.params, sol.matrices, sol.spectral
    mix = sol.mixture
    res = {}

    res["con1_F0"] = float(np.max(np.abs(mix.lower_constant + mix.lower_weights.sum(axis=0))))
    res["con2_value_at_k"] = float(np.max(np.abs(
        mix.components(p.k) - (mix.upper_constant + mix.upper_weights.sum(axis=0))
    )))
    res["con3_slope_at_k"] = float(np.max(np.abs(
        mix.density(p.k) - mix.upper_rates @ mix.upper_weights
    )))

    pi_top = sol.pi_levels[-1]
    slope0 = pi_top @ (p.lam * np.eye(p.c) + m.delta[p.c - 1])
    if p.c > 1:
        slope0[1:] -= p.lam * sol.pi_levels[-2]
    res["con4_slope_at_0"] = float(np.max(np.abs(mix.density(0.0) - slope0)))

    res["con5_balance"] = _reference_balance_residual(sol)
    res["con6_normalization"] = abs(
        -sol.b_c * float(np.eye(p.c)[0].sum()) + float((sol.alpha1 @ sol.m1).sum())
        + sol.p_wait_zero - 1.0
    )

    scale = max(np.abs(sol.alpha0).max(), np.abs(sol.alpha1).max(), 1.0)
    res["null_mode_alpha0"] = abs(float(sol.alpha0 @ sp.phi_star_right)) / scale
    res["null_mode_alpha1"] = abs(float(sol.alpha1 @ sp.psi_c_right)) / scale

    xs = rng.uniform(0.0, p.k, size=10)
    res["integro_differential"] = _reference_integro_residual(sol, xs)
    return res


# The inputs named as silent wrong answers (ROADMAP item 1): residuals far
# from zero must match the reference as exactly as clean ones.
NAMED_INPUTS = [
    (8, 4.004, 1.5, 1.0, 0.5),
    (24, 16.799999999999997, 0.8, 1.0, 0.5),
    (24, 16.8, 0.8, 1.0, 0.5),
    (12, 5.03289, 0.6549, 1.0, 0.332),
    (24, 19.132594520618298, 0.7424959476836241, 2.781652614944676, 0.02208765673970857),
    (2, 2e6, 750000.0, 1.12e6, 4.5e-7),
    (2, 2.0, 0.75, 1.12, 0.45),             # the README's examples
    (3, 2.0, 0.3, 0.8, 5.0),
    (3, 2.0, 0.6, 0.8, 5.0),                # perfbench figures' other verify inputs
    (3, 2.0, 0.67, 0.8, 5.0),
    (3, 2.0, 0.74, 0.8, 5.0),
]


def _seeded_draws(n, seed=2017):
    """n solvable draws with c <= 24, log-uniform k and loads up to 0.97."""
    rng = np.random.default_rng(seed)
    while n:
        c = int(rng.integers(1, 25))
        mu1, mu2 = rng.uniform(0.2, 3.0, size=2)
        lam = rng.uniform(0.05, 0.97) * c * mu2
        k = math.exp(rng.uniform(math.log(0.01), math.log(20.0)))
        try:
            s = solve(validate_params(c, float(lam), float(mu1), float(mu2), k))
        except VqtError:
            continue
        n -= 1
        yield s


def _same_report(got, want, *context):
    """Every residual with the same bits (``==``) and the same Python type."""
    assert list(got) == list(want)
    for name, value in want.items():
        assert got[name] == value and type(got[name]) is type(value), (name, *context)


class TestVerifyMatchesReference:
    """``verify_solution`` evaluates the mixture once for all its points and
    the balance equations in one pass; every residual keeps the bits of the
    per-point report (``==``, and the same Python type)."""

    @staticmethod
    def _check(s):
        for rng in (0, 7, "generator"):
            if rng == "generator":    # default_rng consumes a passed generator
                got = verify_solution(s, rng=np.random.default_rng(99)).residuals
                want = reference_verify(s, rng=np.random.default_rng(99))
            else:
                got, want = verify_solution(s, rng=rng).residuals, reference_verify(s, rng=rng)
            _same_report(got, want, rng)

    @pytest.mark.parametrize("c", range(1, 25))
    def test_load_scan(self, c):
        self._check(solve(validate_params(c, 0.7 * c, 0.8, 1.0, 0.5)))

    @pytest.mark.parametrize("args", NAMED_INPUTS)
    def test_named_inputs(self, args):
        self._check(solve(validate_params(*args)))

    def test_seeded_draws(self):
        for s in _seeded_draws(200):
            self._check(s)

    def test_generator_is_consumed_as_before(self, two_server_solution):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        verify_solution(two_server_solution, rng=a)
        reference_verify(two_server_solution, rng=b)
        assert a.bit_generator.state == b.bit_generator.state


class TestVerifyPoints:
    """A Python int seed's ten unit draws are made once and cached; the
    points k * u keep the bits of ``default_rng(seed).uniform(0, k, 10)``.
    Every other rng goes through ``default_rng`` as before, errors included."""

    def test_one_seed_across_solutions(self):
        seed = 20_261
        before = solver._unit_points.cache_info().hits
        for args in [(2, 2.0, 0.75, 1.12, 0.45), (3, 2.0, 0.3, 0.8, 5.0),
                     (8, 5.6, 0.8, 1.0, 0.5), (1, 0.6, 1.3, 0.9, 12.0)]:
            s = solve(validate_params(*args))
            _same_report(verify_solution(s, rng=seed).residuals, reference_verify(s, rng=seed))
        assert solver._unit_points.cache_info().hits - before >= 3     # calls 2, 3 and 4

    def test_numpy_integer_seed_gives_the_int_report(self, two_server_solution):
        s = two_server_solution
        _same_report(verify_solution(s, rng=np.int64(7)).residuals,
                     verify_solution(s, rng=7).residuals)

    def test_huge_seed_matches_reference(self, three_server_solution):
        s = three_server_solution
        for _ in range(2):
            _same_report(verify_solution(s, rng=2**64).residuals, reference_verify(s, rng=2**64))

    def test_bad_seeds_raise_as_default_rng_does(self, two_server_solution):
        with pytest.raises(TypeError) as want:
            np.random.default_rng(np.True_)
        with pytest.raises(TypeError) as got:
            verify_solution(two_server_solution, rng=np.True_)
        assert str(got.value) == str(want.value)
        for _ in range(2):          # no error is cached
            with pytest.raises(ValueError, match="expected non-negative integer"):
                verify_solution(two_server_solution, rng=-1)

    def test_no_seed_runs_twice(self, two_server_solution):
        for _ in range(2):
            report = verify_solution(two_server_solution, rng=None)
            assert report.max_residual < 1e-8

    def test_cached_points_are_read_only(self):
        u = solver._unit_points(3)
        assert solver._unit_points(3) is u
        with pytest.raises(ValueError, match="read-only"):
            u[0] = 0.5
        assert u.tobytes() == np.random.default_rng(3).random(10).tobytes()


# the c = 8 growth input: theta_max*k = 194.5
GROWTH_INPUT = (8, 9.219533391614547, 2.732484510277274, 2.2966611484135684, 23.467079576678415)


class TestSolutionMethods:
    """StationarySolution.verify, which perfbench's self-test calls, gives
    verify_solution's bits."""

    @staticmethod
    def _bits(x):
        return np.asarray(x).tobytes()

    @pytest.mark.parametrize("args", [(2, 2.0, 0.75, 1.12, 0.45), GROWTH_INPUT])
    def test_methods_equal_module_functions(self, args):
        s = solve(validate_params(*args))
        for rng in (0, 7):
            got, want = s.verify(rng=rng), verify_solution(s, rng=rng)
            assert got.warnings == want.warnings
            assert list(got.residuals) == list(want.residuals)
            assert [self._bits(v) for v in got.residuals.values()] == \
                   [self._bits(v) for v in want.residuals.values()]

    def test_report_text(self):
        # the scan point c = 16 carries a warning: its U2- basis condition is 7.9e10
        rep = verify_solution(solve(validate_params(16, 11.2, 0.8, 1.0, 0.5)), rng=0)
        assert rep.warnings
        lines = str(rep).splitlines()
        assert lines == ([f"{name:32s} {value:.3e}" for name, value in rep.residuals.items()]
                         + list(rep.warnings))
        assert lines[0].startswith("con1_F0 ") and len(lines[0].split()) == 2


class TestBalanceResidual:
    def test_reads_every_entry(self):
        s = solve(validate_params(6, 3.0, 0.8, 1.0, 0.5))
        assert verify_solution(s, rng=0).residuals["con5_balance"] <= 1e-12
        for n, level in enumerate(s.pi_levels):
            for i in range(n + 1):
                levels = list(s.pi_levels)
                levels[n] = level.copy()
                levels[n][i] += 1e-3
                wrong = dataclasses.replace(s, pi_levels=tuple(levels))
                bad = verify_solution(wrong, rng=0).residuals["con5_balance"]
                assert bad > 1e-6, (i, n - i)


class TestPhi:
    def test_edge_values(self):
        # expm1(z)/z on z <= 0 with 1 at both zeros and on NaN; pinned to the
        # bit, where the interior points of verify_solution rarely go
        z = np.array([0.0, -0.0, -5e-324, -1e-300, -1.0, -np.inf, np.nan])
        want = np.array([1.0, 1.0, 1.0, 1.0, 0.6321205588285577, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _phi(z)
        assert got.tobytes() == want.tobytes()


class TestTailRate:
    def test_log_slope_approaches_slowest_mode(self, three_server_solution):
        s = three_server_solution
        beta0 = s.params.lam - s.params.c * s.params.mu2
        x = s.params.k + 20.0 / abs(beta0)
        h = 1e-3            # 1 - F(x) ~ 2e-9 out here; smaller steps drown in roundoff
        lt = lambda y: math.log(1.0 - eval_cdf(s, y)[1])
        slope = (lt(x + h) - lt(x - h)) / (2 * h)
        assert abs(slope - beta0) < 0.01 * abs(beta0)


class TestPropertyDraws:
    def test_thirty_random_draws_full_residuals(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 30:
            p = random_stable_params(rng)
            s = solve(p)
            if s.warnings:        # flagged ill-conditioned: relaxed contract
                assert verify_solution(s, rng=rng).max_residual < 1e-6
                continue
            done += 1
            rep = verify_solution(s, rng=rng)
            assert rep.max_residual < 1e-8, (p, rep.residuals)
            assert abs(s.p_wait_zero + s.f_infinity.sum() - 1.0) < 1e-10
            xs = np.linspace(0.0, 3 * p.k, 60)
            totals = [eval_cdf(s, x)[1] for x in xs]
            assert (np.diff(totals) > -1e-12).all()
            assert all(eval_density(s, x).sum() > -1e-10 for x in xs[1:])
