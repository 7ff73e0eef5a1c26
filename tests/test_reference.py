import math

import numpy as np
import pytest

from vqt.errors import NumericalError, PoleParameter, Unstable
from vqt.model import inspect_params, validate_params
from vqt.reference import erlang_c, erlang_c_prob, single_server
from vqt.solver import eval_cdf, solve


class TestSingleServer:
    def test_equal_rates_reduce_to_mm1(self):
        # formula collapses to pi00 = 1 - rho when mu1 = mu2
        p = inspect_params(1, 1.0, 2.0, 2.0, 1.0)
        ss = single_server(p)
        assert ss.pi00 == pytest.approx(0.5)

    def test_against_general_solver(self):
        p = validate_params(1, 1.0, 2.0, 4.0, 1.0)
        ss = single_server(p)
        s = solve(p)
        assert ss.pi00 == pytest.approx(s.pi(0, 0), abs=1e-9)
        for x in np.linspace(0.0, 10.0, 100):
            assert abs(ss.cdf(x) - eval_cdf(s, x)[1]) < 1e-9

    def test_density_continuity_at_threshold(self):
        p = validate_params(1, 1.0, 2.0, 4.0, 1.0)
        ss = single_server(p)
        level = p.lam * ss.pi00 * math.exp(-(p.mu1 - p.lam) * p.k)
        jump_side = level * ((p.mu2 - p.mu1) - p.lam) / (p.mu2 - p.mu1 - p.lam)
        assert ss.density(p.k - 1e-12) == pytest.approx(level, rel=1e-9)
        assert ss.density(p.k + 1e-12) == pytest.approx(jump_side, rel=1e-9)
        assert level == pytest.approx(jump_side, rel=1e-9)

    def test_total_mass_analytic(self):
        for lam, mu1, mu2, k in [(1, 2, 4, 1), (0.7, 1.1, 0.9, 2.0), (1, 3, 1.4, 0.3)]:
            p = inspect_params(1, lam, mu1, mu2, k)
            assert single_server(p).cdf(math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_growth_is_a_numerical_error(self):
        # (lambda - mu1) k = 7000: exp overflows, as in solve's growth check
        with pytest.raises(NumericalError, match="growth exponent"):
            single_server(inspect_params(1, 0.9, 0.2, 1.0, 1e4))

    def test_pole_rejected(self):
        with pytest.raises(PoleParameter):
            single_server(inspect_params(1, 1.0, 2.0, 3.0, 1.0))

    def test_unstable_rejected(self):
        with pytest.raises(Unstable):
            single_server(inspect_params(1, 2.0, 3.0, 1.5, 1.0))


class TestErlangC:
    def test_single_server_is_rho(self):
        p = inspect_params(1, 1.0, 2.0, 2.0, 1.0)
        ref = erlang_c(p)
        assert ref.c_prob == pytest.approx(0.5)
        assert ref.cdf(1.0) == pytest.approx(1.0 - 0.5 * math.exp(-1.0))

    def test_two_servers_textbook(self):
        ref = erlang_c(inspect_params(2, 1.0, 1.0, 1.0, 1.0))
        assert ref.c_prob == pytest.approx(1.0 / 3.0)
        assert ref.decay == pytest.approx(1.0)
        assert ref.mean() == pytest.approx(1.0 / 3.0)

    def test_log_linear_tail(self):
        ref = erlang_c(inspect_params(3, 2.0, 0.8, 0.8, 1.0))
        xs = np.linspace(0.5, 6.0, 12)
        logs = [math.log(1.0 - ref.cdf(x)) for x in xs]
        slopes = np.diff(logs) / np.diff(xs)
        assert np.allclose(slopes, -ref.decay, rtol=1e-12)

    def test_requires_equal_rates(self):
        with pytest.raises(ValueError):
            erlang_c(inspect_params(2, 1.0, 1.0, 1.1, 1.0))

    def test_general_solver_brackets_erlang(self):
        # mu2 = mu1 (1 +- 1e-7) must bracket the Erlang-C total CDF
        ref = erlang_c(inspect_params(2, 1.0, 1.0, 1.0, 1.0))
        hi = solve(validate_params(2, 1.0, 1.0, 1.0 * (1 + 1e-7), 1.0))
        lo = solve(validate_params(2, 1.0, 1.0, 1.0 * (1 - 1e-7), 1.0))
        for x in (0.3, 1.0, 2.5, 6.0):
            a, b = eval_cdf(lo, x)[1], eval_cdf(hi, x)[1]
            assert min(a, b) - 1e-9 <= ref.cdf(x) <= max(a, b) + 1e-9


def test_erlang_c_prob_matches_direct_formula():
    for c, a in [(2, 1.0), (3, 2.5), (5, 3.7)]:
        rho = a / c
        top = a**c / math.factorial(c) / (1 - rho)
        acc = sum(a**n / math.factorial(n) for n in range(c))
        assert erlang_c_prob(c, a) == pytest.approx(top / (acc + top), rel=1e-12)


def test_erlang_c_prob_is_finite_at_many_servers():
    # a^n/n! overflows past a ~ 715; C(1000, 950) to 60 digits is 0.06825341537714143...
    assert erlang_c_prob(1000, 950.0) == pytest.approx(0.06825341537714143, rel=1e-13)
    for c in (746, 893, 1428, 2000):
        for rho in (0.5, 0.8, 0.95, 0.999):
            assert 0.0 < erlang_c_prob(c, rho * c) < 1.0
    # the sum of ratios overflows where C is below the smallest double: C = 0
    assert erlang_c_prob(2000, 10.0) == 0.0


@pytest.mark.parametrize("law", [
    single_server(inspect_params(1, 1.0, 2.0, 4.0, 1.0)),
    erlang_c(inspect_params(3, 2.0, 0.8, 0.8, 5.0)),
], ids=["single_server", "erlang_c"])
class TestEvaluatorDomain:
    @pytest.mark.parametrize("method", ["cdf", "density"])
    def test_nan_raises_like_the_solver(self, law, method):
        with pytest.raises(ValueError, match=r"^x must be >= 0$"):
            getattr(law, method)(float("nan"))
        with pytest.raises(ValueError, match=r"^x must be >= 0$"):
            getattr(law, method)(np.float64("nan"))

    def test_negative_x_has_no_mass(self, law):
        for x in (-0.5, -1e-300, -math.inf):
            assert law.cdf(x) == 0.0
            assert law.density(x) == 0.0

    def test_atom_at_zero(self, law):
        atom = law.pi00 if hasattr(law, "pi00") else law.p_wait_zero
        assert law.cdf(0.0) == law.cdf(-0.0) == atom
        assert law.density(0.0) == 0.0
