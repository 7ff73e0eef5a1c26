import numpy as np
import pytest

from vqt.model import build_matrices, validate_params
from vqt.numerics import unitri_inv
from vqt.spectral import (
    build_spectral,
    compute_beta_spectrum,
    compute_theta_spectrum,
    null_right_vectors,
)

from conftest import random_stable_params


def pencil(theta, lam, d_tilde, b):
    n = len(b)
    return theta * theta * np.eye(n) - theta * (lam * np.eye(n) - d_tilde) + lam * (b - d_tilde)


def pencil_residual(values, vectors, lam, d_tilde, b):
    worst = 0.0
    for theta, v in zip(values, vectors):
        p = pencil(theta, lam, d_tilde, b)
        worst = max(worst, np.abs(v @ p).max() / max(np.abs(v).max(), 1.0))
    return worst


def reference_left_null(pencil_at_root, pivot, orientation):
    """One root's left null vector by scalar substitution from its pivot:
    forward through an upper pencil, backward through a lower one."""
    n = len(pencil_at_root)
    v = np.zeros(n)
    v[pivot] = 1.0
    if orientation == "upper":
        for j in range(pivot + 1, n):
            v[j] = -(v[pivot:j] @ pencil_at_root[pivot:j, j]) / pencil_at_root[j, j]
    else:
        for j in range(pivot - 1, -1, -1):
            v[j] = (-(v[j + 1:pivot + 1] @ pencil_at_root[j + 1:pivot + 1, j])
                    / pencil_at_root[j, j])
    return v


def reference_unitri_inv(v, orientation):
    """Inverse of a unitriangular matrix, one entry at a time down each column."""
    n = len(v)
    out = np.eye(n)
    if orientation == "upper":
        for j in range(1, n):
            for i in range(j - 1, -1, -1):
                out[i, j] = -v[i, i + 1:j + 1] @ out[i + 1:j + 1, j]
    else:
        for j in range(n - 1):
            for i in range(j + 1, n):
                out[i, j] = -v[i, j:i] @ out[j:i, j]
    return out


def scan_params(c):
    return validate_params(c, 0.7 * c, 0.8, 1.0, 0.5)


def assert_rows_close(actual, expected, rtol):
    """Each row within rtol of the expected row's max-norm."""
    scale = np.abs(expected).max(axis=1, keepdims=True)
    assert (np.abs(actual - expected) <= rtol * scale).all()


class TestBatchedSubstitution:
    def test_rows_match_per_root_substitution(self):
        rng = np.random.default_rng(81)
        for _ in range(300):
            p = random_stable_params(rng, 16)
            m = build_matrices(p)
            c = p.c
            for (roots, vectors), d_tilde, b, orientation in (
                (compute_theta_spectrum(p, m), m.d_tilde_1, m.b1, "upper"),
                (compute_beta_spectrum(p, m), m.d_tilde_2, m.b2, "lower"),
            ):
                expected = np.array([
                    reference_left_null(pencil(t, p.lam, d_tilde, b), idx % c, orientation)
                    for idx, t in enumerate(roots)
                ])
                assert_rows_close(vectors, expected, 1e-8)
                for half in (vectors[:c], vectors[c:]):
                    assert_rows_close(unitri_inv(half, orientation),
                                      reference_unitri_inv(half, orientation), 1e-8)

    @pytest.mark.parametrize("c", [1, 2, 8, 24])
    def test_exact_pivots_and_zeros(self, c):
        p = scan_params(c)
        m = build_matrices(p)
        _, phi = compute_theta_spectrum(p, m)
        _, psi = compute_beta_spectrum(p, m)
        for idx in range(2 * c):
            pivot = idx % c
            assert phi[idx, pivot] == 1.0 and psi[idx, pivot] == 1.0
            assert not phi[idx, :pivot].any()
            assert not psi[idx, pivot + 1:].any()

    @pytest.mark.parametrize("c", [16, 24])
    def test_pencil_residual_at_scan_points(self, c):
        p = scan_params(c)
        m = build_matrices(p)
        theta, phi = compute_theta_spectrum(p, m)
        beta, psi = compute_beta_spectrum(p, m)
        assert pencil_residual(theta, phi, p.lam, m.d_tilde_1, m.b1) < 1e-10
        assert pencil_residual(beta, psi, p.lam, m.d_tilde_2, m.b2) < 1e-10


class TestUnitriInv:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_inverse_both_orientations(self, n):
        rng = np.random.default_rng(n)
        upper = np.triu(rng.uniform(-2.0, 2.0, (n, n)), 1) + np.eye(n)
        for v, orientation in ((upper, "upper"), (upper.T.copy(), "lower")):
            x = unitri_inv(v, orientation)
            assert np.allclose(v @ x, np.eye(n), atol=1e-12)
            assert np.allclose(x @ v, np.eye(n), atol=1e-12)

    def test_eigenvector_bases(self):
        p = scan_params(16)
        m = build_matrices(p)
        c = p.c
        _, phi = compute_theta_spectrum(p, m)
        _, psi = compute_beta_spectrum(p, m)
        for v, orientation in ((phi[:c], "upper"), (phi[c:], "upper"), (psi[:c], "lower")):
            x = unitri_inv(v, orientation)
            # graded bases: compare against the row scales of the product
            scale = np.abs(v).max(axis=1, keepdims=True) * np.abs(x).max(axis=0)
            assert (np.abs(v @ x - np.eye(c)) <= 1e-12 * scale).all()

    def test_rejects_unknown_orientation(self):
        with pytest.raises(ValueError):
            unitri_inv(np.eye(2), "diagonal")


class TestThetaSpectrum:
    def test_worked_example_roots(self, two_server_params):
        m = build_matrices(two_server_params)
        theta, _ = compute_theta_spectrum(two_server_params, m)
        assert np.allclose(theta, [-1.4331, 0.0, 1.5631, 0.5], atol=5e-5)

    def test_single_server_roots(self):
        for lam, mu1 in ((1.0, 2.0), (2.0, 1.5)):
            p = validate_params(1, lam, mu1, max(lam * 1.2, mu1 * 1.7), 1.0)
            m = build_matrices(p)
            theta, _ = compute_theta_spectrum(p, m)
            assert theta[0] == pytest.approx(min(0.0, lam - mu1))
            assert theta[1] == pytest.approx(max(0.0, lam - mu1))

    def test_residuals_random_c5(self):
        p = validate_params(5, 3.0, 0.9, 1.1, 1.0)
        m = build_matrices(p)
        theta, phi = compute_theta_spectrum(p, m)
        assert pencil_residual(theta, phi, p.lam, m.d_tilde_1, m.b1) < 1e-10

    def test_sign_pattern_and_null_vector(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_stable_params(rng)
            m = build_matrices(p)
            theta, phi = compute_theta_spectrum(p, m)
            c = p.c
            assert all(theta[i] < 0 for i in range(c - 1))
            assert theta[c - 1] == pytest.approx(min(0.0, p.lam - c * p.mu1), abs=1e-12)
            assert all(theta[i + c] > 0 for i in range(c - 1))
            assert theta[2 * c - 1] == pytest.approx(max(0.0, p.lam - c * p.mu1), abs=1e-12)
            zero_idx = c - 1 if p.lam < c * p.mu1 else 2 * c - 1
            expected = np.zeros(c)
            expected[-1] = 1.0
            assert np.array_equal(phi[zero_idx], expected)

    def test_vieta(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            p = random_stable_params(rng)
            m = build_matrices(p)
            theta, _ = compute_theta_spectrum(p, m)
            for i in range(p.c):
                s = p.lam - (i + 1) * p.mu1 - (p.c - 1 - i) * p.mu2
                prod = -(p.c - 1 - i) * p.lam * p.mu2
                assert theta[i] + theta[i + p.c] == pytest.approx(s, abs=1e-10 * p.scale)
                assert theta[i] * theta[i + p.c] == pytest.approx(prod, abs=1e-10 * p.scale**2)
                assert theta[i] <= theta[i + p.c]


class TestBetaSpectrum:
    def test_worked_example_roots(self, two_server_params):
        m = build_matrices(two_server_params)
        beta, _ = compute_beta_spectrum(two_server_params, m)
        assert np.allclose(beta, [-0.24, -1.1615, 0.0, 1.2915], atol=5e-5)

    def test_single_server(self):
        p = validate_params(1, 1.0, 2.0, 1.5, 1.0)
        m = build_matrices(p)
        beta, psi = compute_beta_spectrum(p, m)
        assert beta[0] == pytest.approx(1.0 - 1.5)
        assert beta[1] == 0.0

    def test_residuals_c3(self):
        p = validate_params(3, 2.0, 0.8, 0.7, 5.0)
        m = build_matrices(p)
        beta, psi = compute_beta_spectrum(p, m)
        assert pencil_residual(beta, psi, p.lam, m.d_tilde_2, m.b2) < 1e-10

    def test_sign_pattern_and_psi_c(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_stable_params(rng)
            m = build_matrices(p)
            beta, psi = compute_beta_spectrum(p, m)
            c = p.c
            assert all(beta[i] < 0 for i in range(c))
            assert beta[c] == 0.0
            assert all(beta[i + c] > 0 for i in range(1, c))
            expected = np.zeros(c)
            expected[0] = 1.0
            assert np.array_equal(psi[c], expected)


class TestUMatrices:
    def test_scalar_case(self):
        p = validate_params(1, 1.0, 2.0, 1.5, 1.0)
        sp = build_spectral(p, build_matrices(p))
        assert sp.u1_minus.mat[0, 0] == pytest.approx(min(0.0, p.lam - p.mu1))
        assert sp.u1_plus.mat[0, 0] == pytest.approx(max(0.0, p.lam - p.mu1))

    def test_quadratic_residual_worked_example(self, two_server_params):
        m = build_matrices(two_server_params)
        sp = build_spectral(two_server_params, m)
        lam = two_server_params.lam
        eye = np.eye(2)
        for u in (sp.u1_minus.mat, sp.u1_plus.mat):
            res = u @ u - u @ (lam * eye - m.d_tilde_1) + lam * (m.b1 - m.d_tilde_1)
            assert np.abs(res).max() < 1e-10
        u = sp.u2_minus.mat
        res = u @ u - u @ (lam * eye - m.d_tilde_2) + lam * (m.b2 - m.d_tilde_2)
        assert np.abs(res).max() < 1e-10

    def test_u2_minus_eigenvalues_worked_example(self, two_server_params):
        sp = build_spectral(two_server_params, build_matrices(two_server_params))
        assert np.allclose(sorted(sp.u2_minus.eig.values), [-1.1615, -0.24], atol=5e-5)

    def test_sign_partition_random(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            p = random_stable_params(rng)
            sp = build_spectral(p, build_matrices(p))
            assert sp.u1_minus.eig.values.max() <= 1e-14
            assert sp.u1_plus.eig.values.min() >= -1e-14
            assert sp.u2_minus.eig.values.max() < 0
            assert sp.beta[p.c:].min() >= 0
            # spectra disjoint, so the gap matrix is invertible
            gap = sp.u1_plus.mat - sp.u1_minus.mat
            assert np.linalg.matrix_rank(gap) == p.c


class TestNullRightVectors:
    def test_scalar_case(self):
        p = validate_params(1, 1.0, 2.0, 1.5, 1.0)
        phi_r, psi_r = null_right_vectors(build_matrices(p))
        assert phi_r[0] == 1.0 and psi_r[0] == 1.0

    def test_residual_worked_example(self, two_server_params):
        m = build_matrices(two_server_params)
        phi_r, psi_r = null_right_vectors(m)
        assert np.abs((m.b1 - m.d_tilde_1) @ phi_r).max() < 1e-12
        assert np.abs((m.b2 - m.d_tilde_2) @ psi_r).max() < 1e-12
        assert np.abs(phi_r).max() == pytest.approx(1.0)
        assert np.abs(psi_r).max() == pytest.approx(1.0)

    def test_orthogonality_after_solve(self, two_server_solution):
        s = two_server_solution
        scale = max(np.abs(s.alpha0).max(), np.abs(s.alpha1).max())
        assert abs(s.alpha0 @ s.spectral.phi_star_right) < 1e-8 * scale
        assert abs(s.alpha1 @ s.spectral.psi_c_right) < 1e-8 * scale
