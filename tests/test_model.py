import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from vqt.errors import Degenerate, NonPositive, Unstable
from vqt.model import (
    QueueParams,
    build_matrices,
    inspect_params,
    tilde_q,
    validate_params,
)
from vqt.simulator import SimConfig, simulate

from conftest import TWO_SERVER, class_swap_matrix, random_stable_params


class TestValidateParams:
    def test_worked_example_is_valid(self):
        p = validate_params(**TWO_SERVER)
        assert p.stable

    def test_unstable(self):
        with pytest.raises(Unstable):
            validate_params(1, 2.0, 1.0, 1.5, 1.0)   # rho = 4/3

    def test_degenerate_lambda_c_mu1(self):
        with pytest.raises(Degenerate) as exc:
            validate_params(3, 2.4, 0.8, 0.9, 5.0)
        assert "c*mu1" in exc.value.condition
        sugg = exc.value.suggestion
        validate_params(sugg["c"], sugg["lambda"], sugg["mu1"], sugg["mu2"], sugg["k"])

    def test_equal_rates_rejected_strictly(self):
        with pytest.raises(Degenerate):
            validate_params(2, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [
        dict(c=0, lam=1, mu1=1, mu2=1, k=1),
        dict(c=1, lam=-1, mu1=1, mu2=1, k=1),
        dict(c=1, lam=1, mu1=0, mu2=1, k=1),
        dict(c=1, lam=1, mu1=1, mu2=1, k=float("nan")),
    ])
    def test_nonpositive(self, bad):
        with pytest.raises(NonPositive):
            validate_params(bad["c"], bad["lam"], bad["mu1"], bad["mu2"], bad["k"])

    def test_inspect_accepts_degenerate(self):
        inspect_params(2, 1.0, 1.0, 1.0, 1.0)
        q = inspect_params(1, 2.0, 1.0, 1.5, 1.0)
        assert not q.stable

    def test_stability_derives_from_the_five_inputs(self):
        q = QueueParams(1, 2.0, 1.0, 1.0, 1.0)
        assert q.stable is False and q.rho == 2.0
        est = simulate(q, SimConfig(1000))
        assert any("unstable" in w for w in est.warnings)
        assert [f.name for f in dataclasses.fields(QueueParams)] == ["c", "lam", "mu1", "mu2", "k"]
        assert q == inspect_params(1, 2, 1, 1, 1)


class TestBuildMatrices:
    def test_two_server_entries(self, two_server_params):
        m = build_matrices(two_server_params)
        assert np.allclose(m.b1, [[0.75, 1.12], [0.0, 1.5]], atol=0)
        assert np.allclose(m.b2, [[2.24, 0.0], [0.75, 1.12]], atol=0)
        assert np.allclose(m.delta[1], np.diag([1.12, 0.75]), atol=0)

    def test_two_server_d_tilde_diagonals(self, two_server_params):
        m = build_matrices(two_server_params)
        assert np.allclose(np.diag(m.d_tilde_1), [1.87, 1.50])
        assert np.allclose(np.diag(m.d_tilde_2), [2.24, 1.87])

    def test_d_tilde_1_offdiagonal_exact(self, two_server_params):
        # Exact rational arithmetic oracle for B1^{-1} Delta_1 B1, entry (0,1).
        mu1, mu2 = Fraction(3, 4), Fraction(28, 25)
        b1 = [[mu1, mu2], [Fraction(0), 2 * mu1]]
        det = b1[0][0] * b1[1][1]
        b1_inv = [[b1[1][1] / det, -b1[0][1] / det], [Fraction(0), b1[0][0] / det]]
        d1 = [mu2, mu1]
        expected = sum(b1_inv[0][j] * d1[j] * b1[j][1] for j in range(2))
        assert expected == Fraction(1036, 1875)
        m = build_matrices(two_server_params)
        assert abs(m.d_tilde_1[0, 1] - float(expected)) < 1e-14

    def test_row_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_stable_params(rng, c_max=6)
            m = build_matrices(p)
            c, mu1, mu2 = p.c, p.mu1, p.mu2
            for i in range(c):
                assert m.b1[i].sum() == pytest.approx((i + 1) * mu1 + (c - 1 - i) * mu2)
                assert m.b2[i].sum() == pytest.approx(i * mu1 + (c - i) * mu2)

    def test_d_tilde_spectrum_by_similarity(self):
        rng = np.random.default_rng(12)
        p = random_stable_params(rng, c_max=6)
        m = build_matrices(p)
        expect = sorted(j * p.mu1 + (p.c - 1 - j) * p.mu2 + p.mu1 for j in range(p.c))
        assert np.allclose(sorted(np.diag(m.d_tilde_1)), expect, rtol=1e-12)
        expect2 = sorted(j * p.mu1 + (p.c - 1 - j) * p.mu2 + p.mu2 for j in range(p.c))
        assert np.allclose(sorted(np.diag(m.d_tilde_2)), expect2, rtol=1e-12)

    def test_b_hat_shapes_and_entries(self, two_server_params):
        # one B_hat_n per level the recursion solves, n = 0 .. c - 2
        m = build_matrices(two_server_params)
        assert len(m.b_hat) == 1
        assert m.b_hat[0].shape == (2, 1)
        assert np.allclose(m.b_hat[0], [[1.12], [0.75]])
        m = build_matrices(validate_params(3, 2.0, 0.8, 0.7, 5.0))
        assert len(m.b_hat) == 2
        assert m.b_hat[1].shape == (3, 2)
        assert np.allclose(m.b_hat[1], [[1.4, 0.0], [0.8, 0.7], [0.0, 1.6]])


def _rate_coefficients(c):
    """(k1, k2) of B1, B2, Delta_0..c-1 and B_hat_0..c-2, entry by entry from
    the rates out of each state (i class-1, j class-2 services in progress)."""
    def matrix(shape, entries):
        k = np.zeros((2, *shape))
        for (row, col), pair in entries:
            k[:, row, col] = pair
        return k

    b1 = matrix((c, c), [((i, i), (i + 1, 0)) for i in range(c)]
                + [((i, i + 1), (0, c - 1 - i)) for i in range(c - 1)])
    b2 = matrix((c, c), [((i, i), (0, c - i)) for i in range(c)]
                + [((i, i - 1), (i, 0)) for i in range(1, c)])
    delta = [matrix((n + 1, n + 1), [((i, i), (i, n - i)) for i in range(n + 1)])
             for n in range(c)]
    b_hat = [matrix((n + 2, n + 1), [((i, i - 1), (i, 0)) for i in range(1, n + 2)]
                    + [((i, i), (0, n + 1 - i)) for i in range(n + 1)])
             for n in range(c - 1)]
    return [b1, b2, *delta, *b_hat]


class TestCoefficientMatrices:
    """build_matrices forms B1, B2, Delta_n and B_hat_n in one pass over
    their entries; each keeps the bits of its own sum k1 mu1 + k2 mu2, and
    none can be written, as they share one buffer."""

    @pytest.mark.parametrize("c", [1, 2, 9])
    @pytest.mark.parametrize("stack", [False, True])
    def test_one_pass_keeps_each_sum_and_is_read_only(self, c, stack):
        mu1 = np.array([0.3, 0.77, 1.9]) if stack else 0.77
        mu2 = 1.12
        params = QueueParams(c, 0.5, mu1, mu2, 0.45)
        m = build_matrices(params)
        got = [m.b1, m.b2, *m.delta, *m.b_hat]
        assert len(got) == 2 * c + 1
        mu1 = mu1[:, None, None] if stack else mu1
        for a, (k1, k2) in zip(got, _rate_coefficients(c)):
            want = k1 * mu1 + k2 * mu2
            assert a.shape == want.shape and a.dtype == want.dtype
            assert a.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0


class TestClassSwap:
    def test_identity_holds(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = random_stable_params(rng)
            m = build_matrices(p)
            d = m.delta[p.c - 1]
            lhs = class_swap_matrix(p) @ (m.b1 - p.mu1 * np.eye(p.c) - d)
            rhs = m.b2 - p.mu2 * np.eye(p.c) - d
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() < 1e-12 * scale


class TestTildeQ:
    def test_zero_is_identity(self, two_server_params):
        m = build_matrices(two_server_params)
        assert np.allclose(tilde_q(0.0, m), np.eye(2), atol=1e-15)

    def test_scalar_case(self):
        p = validate_params(1, 1.0, 2.0, 2.8, 1.0)
        m = build_matrices(p)
        assert tilde_q(0.7, m)[0, 0] == pytest.approx(np.exp(-2.0 * 0.7))

    def test_diagonal_entries(self, two_server_params):
        m = build_matrices(two_server_params)
        x = 0.9
        got = np.diag(tilde_q(x, m))
        assert np.allclose(got, np.exp(-np.diag(m.d_tilde_1) * x), rtol=1e-13)

    def test_derivative_finite_difference(self, two_server_params):
        # (Q(x+h) - Q(x))/h ~ -Q(x) D to 1e-4 relative at h = 1e-6
        m = build_matrices(two_server_params)
        x, h = 0.8, 1e-6
        fd = (tilde_q(x + h, m) - tilde_q(x, m)) / h
        ref = -tilde_q(x, m) @ m.d_tilde_1
        assert np.abs(fd - ref).max() < 1e-4 * np.abs(ref).max()

    def test_triangularity(self, two_server_params):
        m = build_matrices(two_server_params)
        assert tilde_q(1.3, m)[1, 0] == 0.0

    @pytest.mark.parametrize("x", [float("nan"), np.array([0.5, float("nan")])])
    def test_nan_raises(self, two_server_params, x):
        m = build_matrices(two_server_params)
        with pytest.raises(ValueError, match="x must be >= 0"):
            tilde_q(x, m)


def test_params_properties():
    p = QueueParams(2, 1.0, 2.0, 0.8, 1.0)
    assert p.rho == pytest.approx(1.0 / 1.6)
