"""Minimal dense linear-algebra kernel.

Everything the solution pipeline needs reduces to two operations on small
dense matrices: LU solves (with substitution for the unitriangular
eigenvector bases) and analytic matrix functions through a known
eigenbasis; plus the scalar moment kernel int_a^b t x e^(tx) dx of one
exponential term.  All matrices in this package are triangular or similar
to a triangular matrix with a spectrum that is known in closed form, so
matrix functions never need Pade or Schur machinery.

The LU solve keeps its scaled pivot test everywhere, because that test is
what rejects ill-conditioned inputs.  Upper-triangular inputs (B1, the M0
argument, U1+ - U1-, the boundary recursion's level matrices) skip the
elimination and the forward pass: their pivots never leave the diagonal and
both passes only subtract exact zero products, so back substitution alone
gives the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import DivergentIntegral, Singular

__all__ = [
    "EigenSystem",
    "lu_factor",
    "lu_solve",
    "solve_right",
    "inv",
    "unitri_inv",
    "mat_func",
    "cond_1norm",
]

# Pivot threshold: relative to the max-norm of the matrix being factored.
_PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class EigenSystem:
    """Left eigendecomposition of a square matrix A.

    Rows of ``left_vectors`` are left eigenvectors: V @ A = diag(values) @ V,
    hence A = V^{-1} diag(values) V and f(A) = V^{-1} diag(f(values)) V.
    """

    values: np.ndarray
    left_vectors: np.ndarray
    inverse_vectors: np.ndarray


def cond_1norm(a: np.ndarray, a_inv: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max() * np.abs(a_inv).sum(axis=0).max())


def _pivot_error(pivot: float, column: int) -> Singular:
    return Singular(
        f"pivot {pivot:.3e} below {_PIVOT_TOL:.0e} of its row "
        f"scale at column {column}"
    )


def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU with scaled partial pivoting; returns (packed LU, permutation).

    Pivots are selected and the singularity test applied relative to each
    candidate row's own max-norm, so strongly row-graded but regular
    matrices (eigenvector bases of well-separated spectra) factor cleanly.
    Raises Singular when the best pivot falls below 1e-14 of its row scale.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    row_scale = np.abs(a).max(axis=1)
    if row_scale.min() == 0.0:
        raise Singular("matrix has a zero row")
    perm = np.arange(n)
    for j in range(n):
        scaled = np.abs(a[j:, j]) / row_scale[j:]
        p = j + int(scaled.argmax())
        if scaled[p - j] < _PIVOT_TOL:
            raise _pivot_error(a[p, j], j)
        if p != j:
            a[[j, p]] = a[[p, j]]
            row_scale[[j, p]] = row_scale[[p, j]]
            perm[[j, p]] = perm[[p, j]]
        a[j + 1:, j] /= a[j, j]
        a[j + 1:, j + 1:] -= a[j + 1:, j, None] * a[j, j + 1:]
    return a, perm


@cache
def _strict_lower(n: int) -> np.ndarray:
    """Flat indices of the strictly lower triangle of an n x n matrix."""
    rows, cols = np.tril_indices(n, -1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def _takes_upper_shortcut(a: np.ndarray, x: np.ndarray) -> bool:
    """Whether a is square, finite and exactly zero below its diagonal, and
    x is finite with one row per row of a: then the pivoted path only ever
    subtracts exact zeros."""
    n = len(x)
    return (a.shape == (n, n) and not a.take(_strict_lower(n)).any()
            and np.isfinite(a).all() and np.isfinite(x).all())


def _check_diagonal_pivots(a: np.ndarray) -> None:
    """lu_factor's tests for an upper-triangular a, whose pivot is always
    the diagonal entry: the zero-row check, then the first diagonal entry
    below 1e-14 of its row scale raises the same Singular."""
    row_scale = np.abs(a).max(axis=1)
    if row_scale.min() == 0.0:
        raise Singular("matrix has a zero row")
    scaled = np.abs(a.diagonal()) / row_scale
    if scaled.min() < _PIVOT_TOL:
        j = int((scaled < _PIVOT_TOL).argmax())
        raise _pivot_error(a[j, j], j)


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by scaled partial-pivot LU; b may have several columns.

    A finite upper-triangular a with a finite b goes straight to back
    substitution after lu_factor's pivot tests.  Scaled partial pivoting
    keeps every pivot of such a matrix on the diagonal (the entries below it
    are zero), so its multipliers are zero and the elimination and the
    unit-lower forward pass only subtract exact zero products; skipping them
    changes no value.  A non-finite entry would turn 0 * inf into NaN there,
    so such inputs keep the full path.  Lower-triangular and full matrices
    are factored with pivoting: with nonzeros below the diagonal the scaled
    test can pick another row (B2 already swaps rows at c = 7 with
    lam = 0.7c, mu1 = 0.8, mu2 = 1), and a swap changes the arithmetic.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    vector = b.ndim == 1
    x = b.reshape(len(b), -1)
    if _takes_upper_shortcut(a, x):
        _check_diagonal_pivots(a)
        lu, x = a, x.copy()
    else:
        lu, perm = lu_factor(a)
        x = x[perm]
        for j in range(len(lu)):        # forward: L y = P b, unit diagonal
            x[j + 1:] -= lu[j + 1:, j, None] * x[j]
    for j in range(len(lu) - 1, -1, -1):  # backward: U x = y
        x[j] /= lu[j, j]
        if j:
            x[:j] -= lu[:j, j, None] * x[j]
    return x[:, 0] if vector else x


def solve_right(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve x @ a = b (row-vector convention)."""
    return lu_solve(np.asarray(a, float).T, np.asarray(b, float).T).T


def inv(a: np.ndarray) -> np.ndarray:
    return lu_solve(a, np.eye(len(a)))


def unitri_inv(v: np.ndarray, orientation: str) -> np.ndarray:
    """Inverse of a unitriangular matrix by substitution (no pivoting).

    The eigenvector bases here have unit pivots with all fill on one side;
    substitution preserves their row grading where permuted elimination
    would destroy it.
    """
    n = len(v)
    out = np.eye(n)
    if orientation == "upper":
        for j in range(1, n):
            for i in range(j - 1, -1, -1):
                out[i, j] = -v[i, i + 1:j + 1] @ out[i + 1:j + 1, j]
    elif orientation == "lower":
        for j in range(n - 1):
            for i in range(j + 1, n):
                out[i, j] = -v[i, j:i] @ out[j:i, j]
    else:
        raise ValueError("orientation must be 'upper' or 'lower'")
    return out


def mat_func(es: EigenSystem, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function through the eigenbasis.

    The result R satisfies v @ R = f(theta) * v for every stored eigenpair.
    """
    fv = np.asarray(f(es.values), dtype=float)
    return es.inverse_vectors @ (fv[:, None] * es.left_vectors)


def _ik_series(th: float, a: float, b: float) -> float:
    # int_a^b th*x*e^(th*x) dx expanded about th = 0; five terms keep the
    # truncation far below 1e-12 at the switch point.
    acc = 0.0
    for n, denom in enumerate((2.0, 3.0, 8.0, 30.0, 144.0)):
        acc += th ** (n + 1) * (b ** (n + 2) - a ** (n + 2)) / denom
    return acc


def _ik_scalar(th: float, a: float, b: float) -> float:
    """int_a^b th x e^(th x) dx for 0 <= a <= b; b = inf needs th < 0."""
    if b == np.inf:
        if th >= 0.0:
            raise DivergentIntegral(f"eigenvalue {th} >= 0 with b = inf")
        return -a * np.exp(th * a) + np.exp(th * a) / th
    if abs(th) * max(abs(a), abs(b)) < 1e-6:
        return _ik_series(th, a, b)
    ea, eb = np.exp(th * a), np.exp(th * b)
    return (b * eb - a * ea) - (eb - ea) / th
