"""Closed-form spectra of the two quadratic eigenvalue problems.

Both pencils are triangular, so the 2c eigenvalues split into c scalar
quadratics, one per diagonal position.  Pairing each eigenvalue with the
quadratic it came from (instead of sorting by value) keeps the null-mode
eigenvectors identified even when magnitudes cross.  The left eigenvectors
come out of one substitution pass over the stacked pencils, one batched
product per column: for all 2c roots of theta, and for the c decaying roots
of beta, the only ones a solve reads.  The three solvents of the quadratic
matrix equations, U = V^-1 diag(roots) V, come from the sign-split halves of
the roots and bases (theta/phi for U1- and U1+, beta/psi for U2-).  The bases
are unitriangular by construction, so their inverses come from substitution;
each solvent and each inverse is stored as a plain array.  Above the
threshold only the decaying solvent U2- is needed, since F stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import Degenerate, ILL_CONDITIONED, NullSpaceDimension, fail
from .model import EPS_DEG, ModelMatrices, QueueParams, per_row
from .numerics import cond_1norm, eye, unitri_inv, vec_dot

__all__ = [
    "SpectralData",
    "null_right_vectors",
    "build_spectral",
]

_COND_WARN = 1e10


@dataclass(frozen=True)
class SpectralData:
    theta: np.ndarray            # 2c roots, index i and i+c from quadratic i
    phi: np.ndarray              # rows: left eigenvectors, pivot normalized to 1
    phi_minus_inv: np.ndarray    # inverse of phi[:c], the basis of U1-
    phi_plus_inv: np.ndarray     # inverse of phi[c:], the basis of U1+
    beta: np.ndarray             # 2c roots, index i and i+c from quadratic i
    psi: np.ndarray              # rows: left eigenvectors of beta[:c], the basis of U2-
    psi_minus_inv: np.ndarray    # inverse of psi
    phi_star_right: np.ndarray   # right null vector of B1 - D_tilde_1
    psi_c_right: np.ndarray      # right null vector of B2 - D_tilde_2
    u1_minus: np.ndarray         # phi_minus_inv @ diag(theta[:c]) @ phi[:c]
    u1_plus: np.ndarray          # phi_plus_inv @ diag(theta[c:]) @ phi[c:]
    u2_minus: np.ndarray         # psi_minus_inv @ diag(beta[:c]) @ psi
    warnings: tuple[str, ...] = ()


@cache
def _coefficients(c: int) -> tuple[np.ndarray, ...]:
    """k1, k2, k_theta, k_beta of quadratic i of each pencil (row 0 theta, row
    1 beta): s = lambda - k1 mu1 - k2 mu2, p = k_theta lambda mu2 + k_beta
    lambda mu1 (one of the two terms is 0.0, so p is the pencil's product)."""
    i, z = np.arange(c, dtype=float), np.zeros(c)
    return (np.array([i + 1, i]), np.array([c - 1 - i, c - i]),
            np.array([c - 1 - i, z]), np.array([z, i]))


def _left_null_vectors(roots: np.ndarray, lam, d_tilde: np.ndarray,
                       b: np.ndarray, orientation: str) -> np.ndarray:
    """Left null vectors of t^2 I - t (lam I - D_tilde) + lam (B - D_tilde) at
    the roots, one row each: all 2c, or the first c (one half).

    Root idx zeroes diagonal entry idx % c, its pivot, of its triangular
    pencil; its row is 1 there, 0 beyond it, and found by substitution on the
    near side.  One pass over the columns (forward if upper, backward if
    lower) solves column j of every row whose pivot it has passed; the sums
    also run over the exact zeros beyond each pivot, which changes nothing.
    Stacked roots (B, n) give stacked rows (B, n, c).
    """
    c = b.shape[-1]
    t = roots[..., None, None]
    lam = per_row(lam, 3)
    p = t * t * eye(c) - t * (lam * eye(c) - d_tilde[..., None, :, :]) \
        + lam * (b - d_tilde)[..., None, :, :]
    batch, halves = roots.shape[:-1], roots.shape[-1] // c
    p = p.reshape(batch + (halves, c, c, c))
    # [..., half, pivot, entry]; root idx = half*c + pivot
    v = np.empty(batch + (halves, c, c))
    v[...] = eye(c)
    if orientation == "upper":
        steps = [(j, slice(0, j)) for j in range(1, c)]
    else:
        steps = [(j, slice(j + 1, c)) for j in range(c - 2, -1, -1)]
    for j, s in steps:                 # s: pivots passed, and the entries solved
        v[..., s, j] = -(v[..., s, None, s] @ p[..., s, s, j, None])[..., 0, 0] \
            / p[..., s, j, j]
    return v.reshape(batch + (halves * c, c))


def _spectra(params: QueueParams, matrices: ModelMatrices) -> tuple[tuple, tuple]:
    """(theta, phi) and (beta, psi): the 2c roots of both pencils, checked for
    collisions (theta first), and the left eigenvectors of all 2c theta
    roots and of the c decaying beta roots.

    Quadratic i's roots t^2 - s t - p = 0 (p >= 0): the larger, plus =
    0.5 * (s + sqrt(s^2 + 4p)), and the smaller from their product, -p / plus.
    plus cancels where s < 0 and 4p << s^2, and -p / plus inherits its
    error; ROADMAP item 18's second step is to mend it, taking the root of
    larger magnitude with the sign of s.  p = 0 at one index of each pencil
    only (theta's c-1, beta's 0), where the roots are min(0, s) = s - plus
    and max(0, s) = plus exactly, as sqrt(s * s) is |s|.
    """
    c = params.c
    lam, mu1, mu2 = per_row(params.lam, 2), per_row(params.mu1, 2), per_row(params.mu2, 2)
    k1, k2, k_theta, k_beta = _coefficients(c)
    s = lam - k1 * mu1 - k2 * mu2
    p = k_theta * lam * mu2 + k_beta * lam * mu1
    plus = 0.5 * (s + np.sqrt(s * s + 4.0 * p))
    zero = p == 0.0                           # 1 + plus there: no 0 / 0
    roots = np.concatenate((np.where(zero, s - plus, -p / (plus + zero)), plus), axis=-1)
    # the smallest gap is between neighbours in order; a non-finite root makes
    # it NaN (0 * inf) and passes, leaving the point to the finiteness checks
    ordered = np.sort(roots, axis=-1)
    low = np.minimum.reduce(ordered[..., 1:] - ordered[..., :-1], axis=-1) \
        + 0.0 * np.maximum.reduce(np.abs(roots), axis=-1)
    for k, label in enumerate(("theta", "beta")):
        fail(low[..., k] <= EPS_DEG * params.scale, lambda i: Degenerate(
            f"{label} eigenvalue collision (gap {low[..., k][i]:.3e})"))
    theta, beta = roots[..., 0, :], roots[..., 1, :]
    return ((theta, _left_null_vectors(theta, params.lam, matrices.d_tilde_1, matrices.b1,
                                       "upper")),
            (beta, _left_null_vectors(beta[..., :c], params.lam, matrices.d_tilde_2,
                                      matrices.b2, "lower")))


def _assemble_u(values: np.ndarray, vectors: np.ndarray,
                orientation: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solvent V^-1 diag(values) V, the basis inverse V^-1 and the
    condition of V, each for every basis of a stack."""
    # the pivot-normalized eigenvector bases are unitriangular, so their
    # inverses come from exact substitution rather than pivoted elimination
    v_inv = unitri_inv(vectors, orientation)
    return v_inv @ (values[..., None] * vectors), v_inv, cond_1norm(vectors, v_inv)


def null_right_vectors(matrices: ModelMatrices, scale) -> tuple[np.ndarray, np.ndarray]:
    """Right null vectors of (B1 - D_tilde_1) and (B2 - D_tilde_2).

    Both matrices are triangular with exactly one zero diagonal entry under
    non-degeneracy, tested against EPS_DEG * scale (relative, as the collision
    check) with the caller's scale; the vectors come out by substitution and
    are normalized to unit max-norm.
    """
    c = matrices.c
    y1 = matrices.b1 - matrices.d_tilde_1        # upper, zero at (c-1, c-1)
    y2 = matrices.b2 - matrices.d_tilde_2        # lower, zero at (0, 0)
    tol = EPS_DEG * scale
    for y, pos in ((y1, c - 1), (y2, 0)):
        diag = np.abs(y.diagonal(axis1=-2, axis2=-1))
        small = np.add.reduce(diag <= per_row(tol, 1), axis=-1)    # entries at or below tol
        fail((diag[..., pos] > tol) | (small > 1), lambda i: NullSpaceDimension(
            "null space of B - D_tilde is not 1-dimensional"))

    phi_star_right = np.zeros(y1.shape[:-1])
    phi_star_right[..., c - 1] = 1.0
    for i in range(c - 2, -1, -1):
        phi_star_right[..., i] = -vec_dot(y1[..., i, i + 1:], phi_star_right[..., i + 1:]) \
            / y1[..., i, i]
    psi_c_right = np.zeros(y2.shape[:-1])
    psi_c_right[..., 0] = 1.0
    for i in range(1, c):
        psi_c_right[..., i] = -vec_dot(y2[..., i, :i], psi_c_right[..., :i]) / y2[..., i, i]

    phi_star_right /= np.maximum.reduce(np.abs(phi_star_right), axis=-1, keepdims=True)
    psi_c_right /= np.maximum.reduce(np.abs(psi_c_right), axis=-1, keepdims=True)
    return phi_star_right, psi_c_right


def _warnings(conds: np.ndarray, rows: tuple) -> tuple:
    """The warnings of one point (rows ()), or a tuple of them for each row of a
    stack (rows (R,)): one per condition conds[..., j] of U1-, U1+, U2- past 1e10."""
    table = np.empty(rows + (3,))
    table[...] = conds              # a k stack shares one point's conditions
    each = tuple(tuple(f"{ILL_CONDITIONED}: {label} eigenbasis condition {cond:.3e}"
                       for label, cond in zip(("u1_minus", "u1_plus", "u2_minus"), row)
                       if cond > _COND_WARN)
                 for row in table.reshape(-1, 3).tolist())
    return each if rows else each[0]


def build_spectral(params: QueueParams, matrices: ModelMatrices) -> SpectralData:
    """Roots and bases of both pencils, the sign-split solvents (U1-, U1+,
    U2-) with their basis inverses, and the null vectors.  For a stack, every
    array that depends on a per-row parameter has a leading row axis, and
    warnings holds one tuple per row.  Of k it reads the shape alone."""
    (theta, phi), (beta, psi) = _spectra(params, matrices)
    c = params.c
    halves = theta.shape[:-1] + (2, c)      # U1- and U1+ as a stack of two
    u1, phi_inv, cond_1 = _assemble_u(theta.reshape(halves), phi.reshape(halves + (c,)),
                                      "upper")
    u1_minus, u1_plus = u1[..., 0, :, :], u1[..., 1, :, :]
    phi_minus_inv, phi_plus_inv = phi_inv[..., 0, :, :], phi_inv[..., 1, :, :]
    u2_minus, psi_minus_inv, cond_2 = _assemble_u(beta[..., :c], psi, "lower")
    rows = max(getattr(x, "shape", ()) for x in (params.lam, params.mu1, params.mu2,
                                                 params.k))  # () or (R,)
    warnings = _warnings(np.concatenate((cond_1, cond_2[..., None]), axis=-1), rows)
    phi_star_right, psi_c_right = null_right_vectors(matrices, params.scale)
    return SpectralData(
        theta=theta,
        phi=phi,
        phi_minus_inv=phi_minus_inv,
        phi_plus_inv=phi_plus_inv,
        beta=beta,
        psi=psi,
        psi_minus_inv=psi_minus_inv,
        phi_star_right=phi_star_right,
        psi_c_right=psi_c_right,
        u1_minus=u1_minus,
        u1_plus=u1_plus,
        u2_minus=u2_minus,
        warnings=warnings,
    )
