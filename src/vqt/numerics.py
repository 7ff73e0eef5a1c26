"""Minimal dense linear-algebra kernel.

The solution pipeline needs three operations on small dense matrices: LU
solves, the inverses of the unitriangular eigenvector bases by substitution,
and the 1-norm condition of a basis.  Matrix functions need no kernel: every
matrix exponential the pipeline forms is of a solvent V^-1 diag(roots) V whose
roots and bases are known in closed form (see ``spectral``).

The LU solve keeps its scaled pivot test everywhere, because that test is
what rejects ill-conditioned inputs.  It eliminates the augmented matrix
[A | B] and back-substitutes.  Upper-triangular inputs (B1, the M0 argument,
U1+ - U1-, the boundary recursion's level matrices) go to back substitution
directly.  A row-vector system x A = B with an upper-triangular A is B @
inv(A) after the pivot test on A's columns, never an elimination of the
lower-triangular transpose, whose row swaps wreck the substitution's accuracy
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 8).

One algorithm, two executors.  Every step (row scales, pivot search,
multipliers, the u - l * v updates, back substitution) is an elementwise
IEEE operation, so any executor that does the same operations in the same
order returns the same bits.  Finite systems of order n <= _LIST_MAX_ORDER
run on lists of Python floats, where the cost is a few list comprehensions
instead of dozens of numpy calls on tiny arrays; larger systems, and every
input holding a NaN or an infinity, run on numpy arrays.  Non-finite inputs
stay on numpy because Python's max and comparisons order NaN differently
from np.max and argmax, which would change the pivot or the error raised.
_LIST_MAX_ORDER = 8 is the measured crossover (BENCH_9.json).  In vqt.solve,
raising the threshold from 6 to 7 saves 14 % at c = 7 and from 7 to 8 saves
4-8 % at c = 8; from 8 to 9 gains 1-2 % at c = 9, inside the noise, and from
9 to 10 loses 5 % at c = 10.  In isolation the list executor is 2-3x faster
than numpy at n <= 4, and from n = 9 up it is slower on inverses (up to
2.5x at n = 16).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import Singular

__all__ = [
    "lu_factor",
    "lu_solve",
    "inv",
    "unitri_inv",
    "cond_1norm",
]

# Pivot threshold: relative to the max-norm of the matrix being factored.
_PIVOT_TOL = 1e-14

# Largest order whose finite LU solves run on Python floats.
_LIST_MAX_ORDER = 8


def cond_1norm(a: np.ndarray, a_inv: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max() * np.abs(a_inv).sum(axis=0).max())


def _pivot_error(pivot: float, column: int) -> Singular:
    return Singular(
        f"pivot {pivot:.3e} below {_PIVOT_TOL:.0e} of its row "
        f"scale at column {column}"
    )


def lu_factor(a: np.ndarray | list[list[float]]) -> tuple:
    """LU with scaled partial pivoting of [A | B]; returns (packed, perm).

    a is n x (n + m).  Pivots and row scales come from the leading n columns
    (A); the trailing m columns (B, none for a square a) go through the same
    row swaps and updates, so packed holds the LU factors of P A followed by
    L^-1 P B.  Pivots are selected and the singularity test applied relative
    to each candidate row's own max-norm, so strongly row-graded but regular
    matrices (eigenvector bases of well-separated spectra) factor cleanly.
    Raises Singular when the best pivot falls below 1e-14 of its row scale.

    The executor follows the input.  A list of row lists of finite floats,
    which is how lu_solve passes its finite systems of order up to
    _LIST_MAX_ORDER, is eliminated in place on Python floats and comes back
    as lists (packed rows, perm); anything else is copied into a numpy array
    and comes back as arrays.  Both give the same bits.
    """
    if isinstance(a, list):
        return _factor_rows(a)
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[1] < a.shape[0]:
        raise ValueError("matrix must be square")
    n = len(a)
    row_scale = np.abs(a[:, :n]).max(axis=1)
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


def _factor_rows(rows: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """lu_factor's elimination on finite Python floats, in place.

    The pivot is the first row of largest |a_ij| / row scale, the row that
    numpy's argmax picks; the multipliers and updates are u - l * v row by
    row, the same operations as the array slices, with no fused multiply-add.
    """
    n = len(rows)
    row_scale = [max(map(abs, r[:n])) for r in rows]
    if 0.0 in row_scale:
        raise Singular("matrix has a zero row")
    perm = list(range(n))
    for j in range(n):
        p, best = j, abs(rows[j][j]) / row_scale[j]
        for i in range(j + 1, n):
            scaled = abs(rows[i][j]) / row_scale[i]
            if scaled > best:
                p, best = i, scaled
        if best < _PIVOT_TOL:
            raise _pivot_error(rows[p][j], j)
        if p != j:
            rows[j], rows[p] = rows[p], rows[j]
            row_scale[j], row_scale[p] = row_scale[p], row_scale[j]
            perm[j], perm[p] = perm[p], perm[j]
        pivot = rows[j]
        d, tail = pivot[j], pivot[j + 1:]
        for r in rows[j + 1:]:
            r[j] = l = r[j] / d
            r[j + 1:] = [u - l * v for u, v in zip(r[j + 1:], tail)]
    return rows, perm


@cache
def _strict_lower(n: int) -> np.ndarray:
    """Flat indices of the strictly lower triangle of an n x n matrix."""
    rows, cols = np.tril_indices(n, -1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def _check_diagonal_pivots(a: np.ndarray) -> None:
    """lu_factor's tests with every pivot on the diagonal, as in an upper
    triangular a: the zero-row check, then the first diagonal entry below
    1e-14 of its row scale raises the same Singular."""
    row_scale = np.abs(a).max(axis=1)
    if row_scale.min() == 0.0:
        raise Singular("matrix has a zero row")
    scaled = np.abs(a.diagonal()) / row_scale
    if scaled.min() < _PIVOT_TOL:
        j = int((scaled < _PIVOT_TOL).argmax())
        raise _pivot_error(a[j, j], j)


def _is_upper_rows(rows: list[list[float]]) -> bool:
    """Whether every entry left of each row's diagonal is zero."""
    return not any(any(r[:i]) for i, r in enumerate(rows))


def _check_diagonal_rows(rows: list[list[float]]) -> None:
    """_check_diagonal_pivots on the rows of a finite [U | B]."""
    n = len(rows)
    row_scale = [max(map(abs, r[:n])) for r in rows]
    if 0.0 in row_scale:
        raise Singular("matrix has a zero row")
    for j, r in enumerate(rows):
        if abs(r[j]) / row_scale[j] < _PIVOT_TOL:
            raise _pivot_error(r[j], j)


def _back_substitute_rows(rows: list[list[float]]) -> list[list[float]]:
    """Solve U x = y for the rows of [U | y], bottom row first."""
    n = len(rows)
    x = [r[n:] for r in rows]
    for j in range(n - 1, -1, -1):
        d = rows[j][j]
        xj = x[j] = [v / d for v in x[j]]
        for i in range(j):
            l = rows[i][j]
            x[i] = [u - l * v for u, v in zip(x[i], xj)]
    return x


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by scaled partial-pivot LU; b may have several columns.

    lu_factor eliminates [a | b], which leaves [U | L^-1 P b]; back
    substitution finishes.  A finite upper-triangular a with a finite b
    skips lu_factor and goes straight to back substitution after lu_factor's
    pivot tests.  Scaled partial pivoting keeps every pivot of such a matrix
    on the diagonal, so the elimination would only subtract exact zero
    products; a non-finite entry would turn 0 * inf into NaN there, so such
    inputs keep the full path.  The lower-triangular inputs (B2, the M1 and
    M2 arguments, U2-) and the full ones (core, the top boundary level) are
    factored with pivoting: the scaled test can pick another row there (B2
    swaps rows at c = 7 with lam = 0.7c, mu1 = 0.8, mu2 = 1).

    Finite systems of order n <= _LIST_MAX_ORDER take every step on Python
    floats (one tolist in, one array out), all others on numpy arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    vector = b.ndim == 1
    x = b.reshape(len(b), -1)
    n = len(x)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    ab = np.concatenate((a, x), axis=1)
    if n <= _LIST_MAX_ORDER:
        rows = ab.tolist()
        # A finite sum means finite entries; a sum that overflows only sends
        # finite rows on to the numpy executor, which gives the same bits.
        if math.isfinite(sum(map(sum, rows))):
            if _is_upper_rows(rows):
                _check_diagonal_rows(rows)
            else:
                rows = lu_factor(rows)[0]
            x = np.array(_back_substitute_rows(rows))
            return x[:, 0] if vector else x
    finite = np.isfinite(ab).all()
    if finite and not a.take(_strict_lower(n)).any():
        _check_diagonal_pivots(a)
        lu, x = a, x.copy()
    else:
        lu = lu_factor(ab)[0]
        x = lu[:, n:].copy()
    for j in range(n - 1, -1, -1):  # backward: U x = y
        x[j] /= lu[j, j]
        if j:
            x[:j] -= lu[:j, j, None] * x[j]
    return x[:, 0] if vector else x


def inv(a: np.ndarray) -> np.ndarray:
    return lu_solve(a, np.eye(len(a)))


def unitri_inv(v: np.ndarray, orientation: str) -> np.ndarray:
    """Inverse of a unitriangular matrix by substitution (no pivoting).

    The eigenvector bases here have unit pivots with all fill on one side;
    substitution preserves their row grading where permuted elimination
    would destroy it.  Each row is one vector-matrix product with the rows
    already found: bottom up for an upper v, top down for a lower one.
    """
    n = len(v)
    out = np.eye(n)
    if orientation == "upper":
        for i in range(n - 2, -1, -1):
            out[i, i + 1:] = -v[i, i + 1:] @ out[i + 1:, i + 1:]
    elif orientation == "lower":
        for i in range(1, n):
            out[i, :i] = -v[i, :i] @ out[:i, :i]
    else:
        raise ValueError("orientation must be 'upper' or 'lower'")
    return out

