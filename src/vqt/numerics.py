"""Minimal dense linear-algebra kernel.

The solution pipeline needs three operations on small dense matrices: the
inverses of triangular matrices by LU (B1 and B2, the M0/M1/M2 arguments of
the particular terms), the inverses of the unitriangular eigenvector bases
by substitution, and the 1-norm condition of a basis.  Matrix functions
need no kernel: every matrix exponential the pipeline forms is of a solvent
V^-1 diag(roots) V whose roots and bases are known in closed form (see
``spectral``).  Each operation also takes a stack (a leading axis), each
matrix getting its own call's bits.  Stacks come from solver.solve_rows,
whose rows carry the points of a sweep: B1 and B2 of a mu1 or mu2 stack,
one inv call each; the M0/M1/M2 arguments of a lambda, mu1 or mu2 stack,
all three in one inv call by inv_family (a point's take one call each);
and the eigenvector bases of every stack but a k stack, which shares one
point's.

inv keeps its scaled pivot test everywhere, because that test is what
rejects ill-conditioned inputs.  It eliminates the augmented matrix [A | I]
and back-substitutes.  Upper-triangular inputs (B1, the M0 argument) go to
back substitution directly.  The solver leaves two solves to LAPACK, both
through solver._row_solve: the bordered boundary system, where the scaled
test rejects inputs that solve clean, and the boundary recursion's level
matrices, strictly row diagonally dominant on every input measured, where
the diagonal test kept in front of them (_check_diagonal) does not fire.

One algorithm, two executors.  Every step (row scales, pivot search,
multipliers, the u - l * v updates, back substitution) is an elementwise
IEEE operation, so any executor that does the same operations in the same
order returns the same bits.  Finite single matrices of order n <=
_LIST_MAX_ORDER run on lists of Python floats (lu_factor), where the cost is
a few list comprehensions instead of dozens of numpy calls on tiny arrays;
larger matrices, every input holding a NaN or an infinity, and stacks run on
numpy arrays (_factor_stack), a stack with its axis moved last: every step
then reads as for one matrix, while each matrix takes its own pivots, swaps
and tests.  That layout stays inside the executor (every other stack, and
_check_diagonal's, has its axis first) because it measured faster: with the
same bits, a stack-first executor ran inv 30-40 % slower on stacks of 64
matrices at c = 3 and 6 (a probe on a shared 2-vCPU machine).  Non-finite
inputs stay on numpy because Python's max and comparisons order NaN
differently from np.max and argmax, which would change the pivot or the
error raised.  _LIST_MAX_ORDER = 8 is the measured crossover (BENCH_9.json):
in vqt.solve, 6 -> 7 saves 14 % at c = 7, 7 -> 8 saves 4-8 % at c = 8,
8 -> 9 gains 1-2 % at c = 9 and 9 -> 10 loses 5 % at c = 10.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import RowErrors, Singular, fail

__all__ = [
    "lu_factor",
    "inv",
    "inv_family",
    "unitri_inv",
    "cond_1norm",
]

# Pivot threshold: relative to the max-norm of the matrix being factored.
_PIVOT_TOL = 1e-14

# Largest order whose finite inverses run on Python floats.
_LIST_MAX_ORDER = 8


@cache
def eye(n: int) -> np.ndarray:
    """np.eye(n), made once per order and read-only."""
    out = np.eye(n)
    out.flags.writeable = False
    return out


def cond_1norm(a: np.ndarray, a_inv: np.ndarray):
    return (np.abs(a).sum(axis=-2).max(axis=-1)
            * np.abs(a_inv).sum(axis=-2).max(axis=-1))


def vec_mat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m for row vectors v (..., n) and matrices (..., n, p): each row
    takes the gemv of a single v @ m, a 2-D v @ m would take gemm."""
    return v @ m if v.ndim == 1 and m.ndim == 2 else (v[..., None, :] @ m)[..., 0, :]


def vec_dot(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v @ w for vectors (..., n), row by row, with the dot of a single pair."""
    return v @ w if v.ndim == w.ndim == 1 else (v[..., None, :] @ w[..., None])[..., 0, 0]


def _pivot_error(pivot: float, column: int) -> Singular:
    return Singular(
        f"pivot {pivot:.3e} below {_PIVOT_TOL:.0e} of its row "
        f"scale at column {column}"
    )


def _factor_stack(a: np.ndarray, n: int) -> None:
    """LU with scaled partial pivoting of [A | B], the numpy executor.

    a is n x (n + m), or a stack of them with the stack axis last.  Pivots
    and row scales come from the leading n columns (A); the trailing m
    columns (B) go through the same row swaps and updates, so a ends up
    holding the LU factors of P A followed by L^-1 P B.  Pivots are selected
    and the singularity test applied relative to each candidate row's own
    max-norm, so strongly row-graded but regular matrices (eigenvector bases
    of well-separated spectra) factor cleanly.  Raises Singular, or RowErrors
    on a stack, where a matrix's best pivot falls below 1e-14 of its row
    scale.

    The tests come after the loop: a pivot stays on the diagonal of U and
    its row scale moves with it, so the first |u_jj| below 1e-14 of its row
    scale is where the elimination alone stops, with the same pivot.  What a
    failed matrix computes past that point is never read (hence the
    errstate)."""
    row_scale = np.maximum.reduce(np.abs(a[:, :n]), axis=1)
    with np.errstate(all="ignore"):
        for j in range(n):
            p = (np.abs(a[j:, j]) / row_scale[j:]).argmax(axis=0)  # the first largest, or NaN
            if p.ndim == 0:
                if p:
                    a[[j, j + p]] = a[[j + p, j]]
                    row_scale[[j, j + p]] = row_scale[[j + p, j]]
            elif np.count_nonzero(p):
                swap = np.flatnonzero(p)
                q = j + p[swap]
                for x in (a, row_scale):
                    x[j, ..., swap], x[q, ..., swap] = x[q, ..., swap], x[j, ..., swap]
            a[j + 1:, j] /= a[j, j]
            a[j + 1:, j + 1:] -= a[j + 1:, j, None] * a[j, j + 1:]
    u, s = (np.moveaxis(a[:, :n], -1, 0), row_scale.T) if a.ndim == 3 else (a[:, :n], row_scale)
    _check_diagonal(u, s)               # the stack axis first again


def _row_scales(rows: list[list[float]]) -> list[float]:
    """Each row's max-norm over A in the rows of [A | B]; Singular on a zero row."""
    n = len(rows)
    row_scale = [max(map(abs, r[:n])) for r in rows]
    if 0.0 in row_scale:
        raise Singular("matrix has a zero row")
    return row_scale


def lu_factor(rows: list[list[float]]) -> list[list[float]]:
    """_factor_stack's elimination of one finite [A | B] given as row lists,
    in place on Python floats; returns the rows.  Raises the Singular that
    _factor_stack raises.

    The pivot is the first row of largest |a_ij| / row scale, the row that
    numpy's argmax picks; the multipliers and updates are u - l * v row by
    row, the same operations as the array slices, with no fused multiply-add.
    """
    n = len(rows)
    row_scale = _row_scales(rows)
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
        pivot = rows[j]
        d, tail = pivot[j], pivot[j + 1:]
        for r in rows[j + 1:]:
            r[j] = l = r[j] / d
            r[j + 1:] = [u - l * v for u, v in zip(r[j + 1:], tail)]
    return rows


@cache
def _strict_lower(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strictly lower triangle of n x n."""
    return np.tril_indices(n, -1)


def _check_diagonal(a: np.ndarray, row_scale=None) -> None:
    """lu_factor's tests with every pivot on the diagonal, for a (n, n) or a
    stack (N, n, n): Singular, or RowErrors on a stack (errors.fail), at a
    zero row, else at the first |a_jj| below 1e-14 of its row scale (given,
    or its row's max-norm)."""
    row_scale = np.maximum.reduce(np.abs(a), axis=-1) if row_scale is None else row_scale
    zero = row_scale == 0.0
    diag = a.diagonal(axis1=-2, axis2=-1)
    low = np.abs(diag) / np.where(zero, 1.0, row_scale) < _PIVOT_TOL

    def error(i) -> Singular:           # i = () for one matrix
        z, l, d = (x[i] for x in (zero, low, diag))
        j = int(l.argmax())
        return Singular("matrix has a zero row") if z.any() else _pivot_error(d[j], j)

    fail(np.logical_or.reduce(zero | low, axis=-1), error)


def _is_upper_rows(rows: list[list[float]]) -> bool:
    """Whether every entry left of each row's diagonal is zero."""
    return not any(any(r[:i]) for i, r in enumerate(rows))


def _check_diagonal_rows(rows: list[list[float]]) -> None:
    """_check_diagonal on the rows of a finite [U | B]."""
    for j, (r, scale) in enumerate(zip(rows, _row_scales(rows))):
        if abs(r[j]) / scale < _PIVOT_TOL:
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


def inv(a: np.ndarray) -> np.ndarray:
    """The inverse of a (n, n), or of each matrix of a stack (N, n, n).

    The elimination of [a | I] (lu_factor on lists, _factor_stack on
    arrays) leaves [U | L^-1 P]; back substitution finishes.  A finite
    upper-triangular a skips the elimination and goes straight to back
    substitution after its pivot tests: scaled partial pivoting keeps every
    pivot of such a matrix on the diagonal, so the elimination would only
    subtract exact zero products.  A non-finite entry would turn 0 * inf
    into NaN there, so such inputs keep the full path.  The upper-triangular
    inputs are B1 and the M0 argument.  The lower-triangular inputs (B2,
    the M1 and M2 arguments) are factored with pivoting: the scaled test can
    pick another row there (B2 swaps rows at c = 7 with lam = 0.7c, mu1 =
    0.8, mu2 = 1).

    A stack takes the shortcut only if every matrix in it is finite and
    upper triangular, and is eliminated whole otherwise; the failing
    matrices raise RowErrors.  Finite single matrices of order n <=
    _LIST_MAX_ORDER take every step on Python floats, all others on numpy.
    """
    n = a.shape[-1]
    if a.ndim == 2 and n <= _LIST_MAX_ORDER:
        rows = [r + e for r, e in zip(a.tolist(), eye(n).tolist())]
        # A finite sum means finite entries; a sum that overflows only
        # sends finite rows on to the numpy executor: the same bits.
        if math.isfinite(sum(map(sum, rows))):
            if _is_upper_rows(rows):
                _check_diagonal_rows(rows)
            else:
                rows = lu_factor(rows)
            return np.array(_back_substitute_rows(rows))
    ab = np.concatenate((a, eye(n) if a.ndim == 2 else np.broadcast_to(eye(n), a.shape)), -1)
    if a.ndim == 3:
        ab = np.moveaxis(ab, 0, -1).copy()     # the stack axis last
    if np.count_nonzero(ab[_strict_lower(n)]) or not np.isfinite(ab).all():
        _factor_stack(ab, n)
    else:
        _check_diagonal(a)
    lu, x = ab[:, :n], ab[:, n:].copy()
    for j in range(n - 1, -1, -1):  # backward: U x = y
        x[j] /= lu[j, j]
        if j:
            x[:j] -= lu[:j, j, None] * x[j]
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)) if ab.ndim == 3 else x


def inv_family(*mats: np.ndarray) -> list[np.ndarray]:
    """inv of each of a family of matrices of one order, (n, n) or stacks
    (N, n, n): one call per matrix when all are single ones, where the list
    executor is faster, else one call on their concatenation, each
    broadcast to the stack's shape, split afterwards.  Every inverse keeps
    the bits of its own call: an upper-triangular M0 argument that is
    eliminated beside the others gets the shortcut's bits, since scaled
    pivoting keeps its pivots on the diagonal.  A RowErrors maps each
    failing row to the error of its first failing matrix in the order
    given: the error that the row raises when the matrices are inverted one
    by one."""
    if all(m.ndim == 2 for m in mats):
        return [inv(m) for m in mats]
    shape = np.broadcast_shapes(*(m.shape for m in mats))
    try:
        out = inv(np.concatenate([np.broadcast_to(m, shape) for m in mats]))
    except RowErrors as exc:
        first = {}
        for i in sorted(exc.errors):        # matrix by matrix, in the order given
            first.setdefault(i % shape[0], exc.errors[i])
        raise RowErrors(dict(sorted(first.items()))) from None
    return list(out.reshape(len(mats), *shape))


def unitri_inv(v: np.ndarray, orientation: str) -> np.ndarray:
    """Inverse of a unitriangular matrix by substitution (no pivoting).

    The eigenvector bases here have unit pivots with all fill on one side;
    substitution preserves their row grading where permuted elimination
    would destroy it.  Each row is one vector-matrix product with the rows
    already found: bottom up for an upper v, top down for a lower one.
    """
    n = v.shape[-1]
    out = np.empty(v.shape)
    out[...] = eye(n)
    if orientation == "upper":
        for i in range(n - 2, -1, -1):
            out[..., i, i + 1:] = vec_mat(-v[..., i, i + 1:], out[..., i + 1:, i + 1:])
    elif orientation == "lower":
        for i in range(1, n):
            out[..., i, :i] = vec_mat(-v[..., i, :i], out[..., :i, :i])
    else:
        raise ValueError("orientation must be 'upper' or 'lower'")
    return out
