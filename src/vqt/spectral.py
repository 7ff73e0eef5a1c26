"""Closed-form spectra of the two quadratic eigenvalue problems.

Both pencils are triangular, so the 2c eigenvalues split into c scalar
quadratics, one per diagonal position.  Pairing each eigenvalue with the
quadratic it came from (instead of sorting by value) keeps the null-mode
eigenvectors identified even when magnitudes cross.  The left eigenvectors
of all 2c roots come out of one substitution pass over the stacked pencils,
one batched product per column.  The three solution
matrices of the quadratic matrix equations are assembled from the sign-split
eigenvector bases, which are unitriangular by construction; above the
threshold only the decaying solution U2- is needed, since F stays bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, ILL_CONDITIONED, NullSpaceDimension
from .model import ModelMatrices, QueueParams
from .numerics import EigenSystem, cond_1norm, unitri_inv

__all__ = [
    "SpectralData",
    "SolutionMatrix",
    "compute_theta_spectrum",
    "compute_beta_spectrum",
    "build_u_matrices",
    "null_right_vectors",
    "build_spectral",
]

_COND_WARN = 1e10


@dataclass(frozen=True)
class SolutionMatrix:
    """A solution of a quadratic matrix equation with its eigenbasis attached."""

    mat: np.ndarray
    eig: EigenSystem


@dataclass(frozen=True)
class SpectralData:
    theta: np.ndarray            # 2c roots, index i and i+c from quadratic i
    phi: np.ndarray              # rows: left eigenvectors, pivot normalized to 1
    beta: np.ndarray
    psi: np.ndarray
    phi_star: np.ndarray         # left null-mode vector [0, ..., 0, 1]
    psi_c: np.ndarray            # left null-mode vector [1, 0, ..., 0]
    phi_star_right: np.ndarray   # right null vector of B1 - D_tilde_1
    psi_c_right: np.ndarray      # right null vector of B2 - D_tilde_2
    u1_minus: SolutionMatrix
    u1_plus: SolutionMatrix
    u2_minus: SolutionMatrix
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
                warnings: list[str], label: str) -> SolutionMatrix:
    # the pivot-normalized eigenvector bases are unitriangular, so their
    # inverses come from exact substitution rather than pivoted elimination
    v_inv = unitri_inv(vectors, orientation)
    cond = cond_1norm(vectors, v_inv)
    if cond > _COND_WARN:
        warnings.append(f"{ILL_CONDITIONED}: {label} eigenbasis condition {cond:.3e}")
    mat = v_inv @ (values[:, None] * vectors)
    return SolutionMatrix(mat=mat, eig=EigenSystem(values, vectors, v_inv))


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


def build_u_matrices(
    params: QueueParams,
    matrices: ModelMatrices,
    theta: np.ndarray,
    phi: np.ndarray,
    beta: np.ndarray,
    psi: np.ndarray,
) -> SpectralData:
    """Assemble the sign-split solution matrices (U1-, U1+, U2-) and the null vectors."""
    c = params.c
    warnings: list[str] = []
    u1_minus = _assemble_u(theta[:c], phi[:c], "upper", warnings, "u1_minus")
    u1_plus = _assemble_u(theta[c:], phi[c:], "upper", warnings, "u1_plus")
    u2_minus = _assemble_u(beta[:c], psi[:c], "lower", warnings, "u2_minus")
    # the increasing modes grow by exp(theta_max * k) across the threshold
    # interval; past e^25 that cancellation visibly erodes the matching of
    # the two branches at the threshold
    growth = float(theta.max() * params.k)
    if growth > 25.0:
        warnings.append(
            f"{ILL_CONDITIONED}: growth exponent theta_max*k = {growth:.1f} "
            f"erodes threshold matching"
        )
    phi_star = np.zeros(c)
    phi_star[c - 1] = 1.0
    psi_c = np.zeros(c)
    psi_c[0] = 1.0
    phi_star_right, psi_c_right = null_right_vectors(matrices)
    return SpectralData(
        theta=theta,
        phi=phi,
        beta=beta,
        psi=psi,
        phi_star=phi_star,
        psi_c=psi_c,
        phi_star_right=phi_star_right,
        psi_c_right=psi_c_right,
        u1_minus=u1_minus,
        u1_plus=u1_plus,
        u2_minus=u2_minus,
        warnings=tuple(warnings),
    )


def build_spectral(params: QueueParams, matrices: ModelMatrices) -> SpectralData:
    theta, phi = compute_theta_spectrum(params, matrices)
    beta, psi = compute_beta_spectrum(params, matrices)
    return build_u_matrices(params, matrices, theta, phi, beta, psi)
