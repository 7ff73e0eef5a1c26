import numpy as np
import pytest

from vqt.model import build_matrices, validate_params
from vqt.spectral import (
    build_spectral,
    compute_beta_spectrum,
    compute_theta_spectrum,
    null_right_vectors,
)

from conftest import random_stable_params


def pencil_residual(values, vectors, lam, d_tilde, b):
    worst = 0.0
    n = len(b)
    for theta, v in zip(values, vectors):
        p = theta**2 * np.eye(n) - theta * (lam * np.eye(n) - d_tilde) + lam * (b - d_tilde)
        worst = max(worst, np.abs(v @ p).max() / max(np.abs(v).max(), 1.0))
    return worst


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
