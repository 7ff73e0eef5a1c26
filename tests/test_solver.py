import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vqt.errors import NumericalError
from vqt.model import build_matrices, tilde_q, validate_params
from vqt.numerics import cond_1norm, inv
from vqt.reference import erlang_c_prob
from vqt.solver import (
    _lower_convolution,
    eval_cdf,
    eval_density,
    h_chain,
    mean_wait,
    particular_matrices,
    scalar_mixture,
    solve,
    verify_solution,
)
from vqt.spectral import build_spectral

from conftest import random_stable_params

GOLDEN_TOL = 5e-5


class TestParticularMatrices:
    def test_scalar_case(self):
        p = validate_params(1, 1.0, 2.0, 2.8, 1.0)
        m = build_matrices(p)
        sp = build_spectral(p, m)
        m0, m1, m2 = particular_matrices(p, m, sp)
        assert m0[0, 0] == pytest.approx(1.0)   # (lam*(mu1-mu1) + 1)^{-1}

    def test_multiply_back(self, two_server_params):
        p = two_server_params
        m = build_matrices(p)
        sp = build_spectral(p, m)
        m0, m1, m2 = particular_matrices(p, m, sp)
        lam, c = p.lam, p.c
        a0 = lam * (m.b1 - m.d_tilde_1) + np.diag(sp.phi_star)
        a1 = lam * (m.b2 - m.d_tilde_2) + np.diag(sp.psi_c)
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
    def test_worked_example_slope_relation(self, two_server_solution):
        # F'(0) = pi_1 H16 - b_c psi_c H15 with the printed coefficients
        s = two_server_solution
        h16 = s.h.h16
        assert h16[0, 0] == pytest.approx(-1.42, abs=5e-3)
        assert h16[1, 0] == pytest.approx(-2.34, abs=5e-3)
        assert h16[0, 1] == pytest.approx(-0.95, abs=5e-3)
        assert h16[1, 1] == pytest.approx(-1.09, abs=5e-3)
        coeff = -(s.spectral.psi_c @ s.h.h15)
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
        m0, m1, m2 = particular_matrices(p, m, sp)
        h = h_chain(p, m, sp, m0, m1, m2)
        tp, tm = sp.u1_plus.mat[0, 0], sp.u1_minus.mat[0, 0]
        h1_expected = (math.exp(tp * p.k) - math.exp(tm * p.k)) / (tp - tm)
        assert h.h1[0, 0] == pytest.approx(h1_expected, rel=1e-12)
        assert h.h3[0, 0] == pytest.approx(h.h1[0, 0] + p.mu1 * h.h2[0, 0], rel=1e-12)

    def test_threshold_slope_both_routes(self, two_server_solution):
        # F'(k) from the below-threshold route equals the above-threshold
        # route through h12/h13/h14 (b_c enters sign-flipped by convention).
        s = two_server_solution
        left = s.f_prime_0 @ s.h.h7 + s.pi_levels[-1] @ s.h.h8
        rhs = (s.f_at_k @ s.h.h12
               + s.b_c * s.spectral.psi_c @ s.spectral.u2_minus.mat
               - s.f_prime_0 @ s.h.h13
               + s.pi_levels[-1] @ s.h.h14)
        lhs = left @ (np.eye(2) - s.h.h9)
        assert np.abs(lhs - rhs).max() < 1e-8
        assert np.abs(left - s.f_prime_at_k).max() < 1e-12


class TestSolve:
    def test_worked_example_golden_values(self, two_server_solution):
        s = two_server_solution
        assert s.pi(0, 0) == pytest.approx(0.0224116, abs=GOLDEN_TOL)
        assert s.pi(0, 1) == pytest.approx(0.0108889, abs=GOLDEN_TOL)
        assert s.pi(1, 0) == pytest.approx(0.0435035, abs=GOLDEN_TOL)
        assert s.b_c == pytest.approx(-0.827051, abs=GOLDEN_TOL)
        assert np.allclose(s.f_prime_0, [0.03397, 0.07481], atol=GOLDEN_TOL)
        assert np.allclose(s.f_at_k, [0.02202, 0.03179], atol=GOLDEN_TOL)
        assert np.allclose(s.f_prime_at_k, [0.0679, 0.0628], atol=GOLDEN_TOL)
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
        # theta_max*k = 734: exp overflows in h_chain and pi, b_c and the
        # mixture turn NaN, which the pi floor test alone lets through.
        p = validate_params(8, 11.63931848796125, 1.7518072811296523,
                            1.9476696008438312, 67.57945954330552)
        with np.errstate(all="ignore"), \
                pytest.raises(NumericalError, match=r"theta_max\*k = 734\.1"):
            solve(p)


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


class TestScalarMixture:
    def test_reproduces_cdf(self, two_server_solution):
        mix = scalar_mixture(two_server_solution)
        k = two_server_solution.params.k
        for x in (0.1, k, 2 * k, 10.0):
            a = mix.components(x)
            b = eval_cdf(two_server_solution, x)[0]
            assert np.abs(a - b).max() < 1e-9

    def test_reproduces_cdf_random(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            s = solve(random_stable_params(rng, c_max=5))
            mix = scalar_mixture(s)
            for x in np.linspace(0.0, 4 * s.params.k, 25):
                assert np.abs(mix.components(x) - eval_cdf(s, x)[0]).max() < 1e-9

    def test_rates_are_spectrum(self, two_server_solution):
        s = two_server_solution
        mix = scalar_mixture(s)
        assert np.allclose(mix.lower_rates, s.spectral.theta)
        tail_rates = mix.upper_rates
        assert np.allclose(tail_rates[:2], s.spectral.beta[:2])
        assert np.allclose(sorted(tail_rates[2:]), [-1.87, -1.50])

    def test_tail_constant_is_limit(self, two_server_solution):
        mix = scalar_mixture(two_server_solution)
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
        assert np.array_equal(tilde_q(1, xs, s.matrices),
                              np.array([tilde_q(1, x, s.matrices) for x in xs]))

    def test_shapes(self, c):
        s = self.solution(c)
        comps, total = eval_cdf(s, 0.3)
        assert comps.shape == (c,) and isinstance(total, float)
        assert eval_density(s, 0.3).shape == (c,)
        assert tilde_q(2, 0.3, s.matrices).shape == (c, c)
        xs = np.linspace(0.0, 2.0, 7)
        comps, totals = eval_cdf(s, xs)
        assert comps.shape == (7, c) and totals.shape == (7,)
        assert eval_density(s, xs).shape == (7, c)
        assert tilde_q(2, xs, s.matrices).shape == (7, c, c)

    def test_negative_entry_raises(self, c):
        s = self.solution(c)
        xs = np.array([0.0, 0.2, -1e-12, 1.0])
        with pytest.raises(ValueError):
            eval_cdf(s, xs)
        with pytest.raises(ValueError):
            eval_density(s, xs)
        with pytest.raises(ValueError):
            tilde_q(1, xs, s.matrices)

    def test_nan_raises(self, c):
        s = self.solution(c)
        for x in (float("nan"), np.float64("nan"), np.array([0.0, np.nan, 1.0])):
            with pytest.raises(ValueError, match="x must be >= 0"):
                eval_cdf(s, x)
            with pytest.raises(ValueError, match="x must be >= 0"):
                eval_density(s, x)


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
            -perturbed * s.spectral.psi_c.sum()
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
                quad(lambda y: (eval_cdf(s, y)[0] @ m.b1 @ tilde_q(1, x - y, m))[j],
                     0.0, x, epsabs=1e-16, epsrel=1e-13)[0]
                for j in range(s.params.c)
            ])
            assert np.abs(exact - ref).max() < 1e-11 * np.abs(ref).max()

    def test_wrong_mixture_row_breaks_integro_identity(self, two_server_solution):
        s = two_server_solution
        mix = s.expansion
        base = verify_solution(s, rng=0).residuals["integro_differential"]
        assert base < 1e-14
        for i in np.flatnonzero(mix.lower_rates):   # rate-0 rows cancel in F
            weights = mix.lower_weights.copy()
            weights[i] *= 1.001
            wrong = dataclasses.replace(
                s, expansion=dataclasses.replace(mix, lower_weights=weights))
            bad = verify_solution(wrong, rng=0).residuals["integro_differential"]
            assert bad > 1e4 * base


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
