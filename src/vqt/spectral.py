"""Closed-form spectra of the two quadratic eigenvalue problems.

Both pencils are triangular, so the 2c eigenvalues split into c scalar
quadratics, one per diagonal position.  Pairing each eigenvalue with the
quadratic it came from (instead of sorting by value) keeps the null-mode
eigenvectors identified even when magnitudes cross.  The left eigenvectors
of all 2c roots come out of one substitution pass over the stacked pencils,
one batched product per column.  The three solvents of the quadratic
matrix equations, U = V^-1 diag(roots) V, come from the sign-split halves of
the roots and bases (theta/phi for U1- and U1+, beta/psi for U2-).  The bases
are unitriangular by construction, so their inverses come from substitution;
each solvent and each inverse is stored as a plain array.  Above the
threshold only the decaying solvent U2- is needed, since F stays bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, ILL_CONDITIONED, NullSpaceDimension
from .model import ModelMatrices, QueueParams
from .numerics import cond_1norm, unitri_inv

__all__ = [
    "SpectralData",
    "compute_theta_spectrum",
    "compute_beta_spectrum",
    "null_right_vectors",
    "build_spectral",
]

_COND_WARN = 1e10
GROWTH_WARN = 25.0    # theta_max*k past which threshold matching erodes


@dataclass(frozen=True)
class SpectralData:
    theta: np.ndarray            # 2c roots, index i and i+c from quadratic i
    phi: np.ndarray              # rows: left eigenvectors, pivot normalized to 1
    phi_minus_inv: np.ndarray    # inverse of phi[:c], the basis of U1-
    phi_plus_inv: np.ndarray     # inverse of phi[c:], the basis of U1+
    beta: np.ndarray
    psi: np.ndarray
    psi_minus_inv: np.ndarray    # inverse of psi[:c], the basis of U2-
    phi_star: np.ndarray         # left null-mode vector [0, ..., 0, 1]
    psi_c: np.ndarray            # left null-mode vector [1, 0, ..., 0]
    phi_star_right: np.ndarray   # right null vector of B1 - D_tilde_1
    psi_c_right: np.ndarray      # right null vector of B2 - D_tilde_2
    u1_minus: np.ndarray         # phi_minus_inv @ diag(theta[:c]) @ phi[:c]
    u1_plus: np.ndarray          # phi_plus_inv @ diag(theta[c:]) @ phi[c:]
    u2_minus: np.ndarray         # psi_minus_inv @ diag(beta[:c]) @ psi[:c]
    warnings: tuple[str, ...] = ()


def _quadratic_roots(s: float, p: float) -> tuple[float, float]:
    """Roots of t^2 - s t - p = 0 with p >= 0, cancellation-safe.

    The larger root is computed from the discriminant; the smaller one from
    the product of roots, which avoids subtractive cancellation when the
    discriminant dwarfs one root.
    """
    if p == 0.0:
        return min(0.0, s), max(0.0, s)
    plus = 0.5 * (s + math.sqrt(s * s + 4.0 * p))
    return -p / plus, plus


def _left_null_vectors(roots: np.ndarray, lam: float, d_tilde: np.ndarray,
                       b: np.ndarray, orientation: str) -> np.ndarray:
    """Left null vectors of t^2 I - t (lam I - D_tilde) + lam (B - D_tilde) at
    all 2c roots, one row each.

    Root idx zeroes diagonal entry idx % c, its pivot, of its triangular
    pencil; its row is 1 there, 0 beyond it, and found by substitution on the
    near side.  One pass over the columns (forward if upper, backward if
    lower) solves column j of every row whose pivot it has passed; the sums
    also run over the exact zeros beyond each pivot, which changes nothing.
    """
    c = len(b)
    eye = np.eye(c)
    t = roots[:, None, None]
    p = (t * t * eye - t * (lam * eye - d_tilde) + lam * (b - d_tilde)).reshape(2, c, c, c)
    v = np.array([eye, eye])           # [half, pivot, entry]; root idx = half*c + pivot
    if orientation == "upper":
        steps = [(j, slice(0, j)) for j in range(1, c)]
    else:
        steps = [(j, slice(j + 1, c)) for j in range(c - 2, -1, -1)]
    for j, s in steps:                 # s: pivots passed, and the entries solved
        v[:, s, j] = -(v[:, s, None, s] @ p[:, s, s, j, None])[..., 0, 0] / p[:, s, j, j]
    return v.reshape(2 * c, c)


def _check_distinct(roots: np.ndarray, scale: float, label: str) -> None:
    n = len(roots)
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(n) * scale
    if gaps.min() <= 1e-9 * scale:
        raise Degenerate(f"{label} eigenvalue collision (gap {gaps.min():.3e})")


def compute_theta_spectrum(
    params: QueueParams, matrices: ModelMatrices
) -> tuple[np.ndarray, np.ndarray]:
    """All 2c roots and left eigenvectors of the below-threshold pencil.

    Quadratic i is t^2 - t(lambda - (i+1) mu1 - (c-1-i) mu2)
    - (c-1-i) lambda mu2 = 0; the smaller root sits at index i, the larger
    at i + c.  The eigenvector for the zero root is [0, ..., 0, 1].
    """
    c, lam, mu1, mu2 = params.c, params.lam, params.mu1, params.mu2
    theta = np.empty(2 * c)
    for i in range(c):
        s = lam - (i + 1) * mu1 - (c - 1 - i) * mu2
        p = (c - 1 - i) * lam * mu2
        theta[i], theta[i + c] = _quadratic_roots(s, p)
    _check_distinct(theta, params.scale, "theta")
    return theta, _left_null_vectors(theta, lam, matrices.d_tilde_1, matrices.b1, "upper")


def compute_beta_spectrum(
    params: QueueParams, matrices: ModelMatrices
) -> tuple[np.ndarray, np.ndarray]:
    """Same for the above-threshold pencil (lower triangular).

    Quadratic i is t^2 - t(lambda - i mu1 - (c-i) mu2) - i lambda mu1 = 0;
    beta_c = 0 comes from quadratic 0 and owns the eigenvector [1, 0, ..., 0].
    """
    c, lam, mu1, mu2 = params.c, params.lam, params.mu1, params.mu2
    beta = np.empty(2 * c)
    for i in range(c):
        s = lam - i * mu1 - (c - i) * mu2
        p = i * lam * mu1
        beta[i], beta[i + c] = _quadratic_roots(s, p)
    _check_distinct(beta, params.scale, "beta")
    return beta, _left_null_vectors(beta, lam, matrices.d_tilde_2, matrices.b2, "lower")


def _assemble_u(values: np.ndarray, vectors: np.ndarray, orientation: str,
                warnings: list[str], label: str) -> tuple[np.ndarray, np.ndarray]:
    """The solvent V^-1 diag(values) V and the basis inverse V^-1."""
    # the pivot-normalized eigenvector bases are unitriangular, so their
    # inverses come from exact substitution rather than pivoted elimination
    v_inv = unitri_inv(vectors, orientation)
    cond = cond_1norm(vectors, v_inv)
    if cond > _COND_WARN:
        warnings.append(f"{ILL_CONDITIONED}: {label} eigenbasis condition {cond:.3e}")
    return v_inv @ (values[:, None] * vectors), v_inv


def null_right_vectors(matrices: ModelMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Right null vectors of (B1 - D_tilde_1) and (B2 - D_tilde_2).

    Both matrices are triangular with exactly one zero diagonal entry under
    non-degeneracy; the vectors come out by substitution and are normalized
    to unit max-norm.
    """
    c = matrices.c
    y1 = matrices.b1 - matrices.d_tilde_1        # upper, zero at (c-1, c-1)
    y2 = matrices.b2 - matrices.d_tilde_2        # lower, zero at (0, 0)
    tol = 1e-9 * max(matrices.params.scale, 1.0)
    for y, pos in ((y1, c - 1), (y2, 0)):
        diag = np.abs(np.diag(y))
        if diag[pos] > tol or (np.partition(diag, 1)[1] if c > 1 else np.inf) <= tol:
            raise NullSpaceDimension("null space of B - D_tilde is not 1-dimensional")

    phi_star_right = np.zeros(c)
    phi_star_right[c - 1] = 1.0
    for i in range(c - 2, -1, -1):
        phi_star_right[i] = -(y1[i, i + 1:] @ phi_star_right[i + 1:]) / y1[i, i]
    psi_c_right = np.zeros(c)
    psi_c_right[0] = 1.0
    for i in range(1, c):
        psi_c_right[i] = -(y2[i, :i] @ psi_c_right[:i]) / y2[i, i]

    phi_star_right /= np.abs(phi_star_right).max()
    psi_c_right /= np.abs(psi_c_right).max()
    return phi_star_right, psi_c_right


def build_spectral(params: QueueParams, matrices: ModelMatrices) -> SpectralData:
    """Roots and bases of both pencils, the sign-split solvents (U1-, U1+,
    U2-) with their basis inverses, and the null vectors."""
    theta, phi = compute_theta_spectrum(params, matrices)
    beta, psi = compute_beta_spectrum(params, matrices)
    c = params.c
    warnings: list[str] = []
    u1_minus, phi_minus_inv = _assemble_u(theta[:c], phi[:c], "upper", warnings, "u1_minus")
    u1_plus, phi_plus_inv = _assemble_u(theta[c:], phi[c:], "upper", warnings, "u1_plus")
    u2_minus, psi_minus_inv = _assemble_u(beta[:c], psi[:c], "lower", warnings, "u2_minus")
    # the increasing modes grow by exp(theta_max * k) across the threshold
    # interval; past e^25 that cancellation visibly erodes the matching of
    # the two branches at the threshold
    growth = float(theta.max() * params.k)
    if growth > GROWTH_WARN:
        warnings.append(
            f"{ILL_CONDITIONED}: growth exponent theta_max*k = {growth:.1f} "
            f"erodes threshold matching"
        )
    phi_star, psi_c = np.eye(c)[[c - 1, 0]]
    phi_star_right, psi_c_right = null_right_vectors(matrices)
    return SpectralData(
        theta=theta,
        phi=phi,
        phi_minus_inv=phi_minus_inv,
        phi_plus_inv=phi_plus_inv,
        beta=beta,
        psi=psi,
        psi_minus_inv=psi_minus_inv,
        phi_star=phi_star,
        psi_c=psi_c,
        phi_star_right=phi_star_right,
        psi_c_right=psi_c_right,
        u1_minus=u1_minus,
        u1_plus=u1_plus,
        u2_minus=u2_minus,
        warnings=tuple(warnings),
    )
