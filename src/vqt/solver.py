"""Full stationary solution of the threshold queue and its evaluators.

The pipeline follows the matrix representation of the distribution: the
sub-distribution vector F(x) = [P(0 < W <= x, state i)] solves a pair of
constant-coefficient second-order linear systems, one below and one above
the threshold, glued by continuity of F and F'.  The boundary conditions
are one linear system of order 2c in the top boundary level and the
coefficients of the lower branch's growing modes, anchored at the threshold
so that no exponential grows (the decoupling of Ascher, Mattheij and
Russell, Numerical Solution of Boundary Value Problems for ODEs, SIAM 1995,
chs. 4 and 6).  It is solved with the tail constant b_c set to 1, and the
normalization then fixes b_c.  The lower boundary (W = 0) probabilities
follow from a backward recursion over occupancy levels.

``solve`` expands F once into its explicit exponential mixture and stores it
on the solution; every evaluator (F, F', E[W], the residual report) reads
that mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (DivergentIntegral, NegativeProbability, NumericalError, RowErrors,
                     Singular, VqtError, fail)
from .model import ModelMatrices, QueueParams, build_matrices, per_row, tilde_q
from .numerics import _check_diagonal, eye, inv_family, vec_dot, vec_mat
from .spectral import SpectralData, build_spectral

__all__ = [
    "StationarySolution",
    "ScalarMixture",
    "ResidualReport",
    "particular_matrices",
    "solve",
    "solve_rows",
    "eval_cdf",
    "eval_density",
    "mean_wait",
    "verify_solution",
]


def particular_matrices(
    params: QueueParams, matrices: ModelMatrices, spectral: SpectralData
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three inverses behind the particular solutions.

    m0/m1 pin down the constant particular terms of the two branches (the
    rank-one diag corrections remove the null modes); m2 drives the memory
    term carried across the threshold by below-threshold jumps.  A row
    orthogonal to the null vector, as alpha0 and alpha1 are, has the same
    product with m0/m1 whatever the correction's size; it is scale^2, in the
    rate^2 units of lam (B - D_tilde), so that the rounding of that
    orthogonality is not amplified by scale^2 at large rates.
    """
    c, lam, mu1 = params.c, per_row(params.lam, 2), per_row(params.mu1, 2)
    # the null modes' left vectors are e_{c-1} (B1 - D_tilde_1) and e_0 (B2 - D_tilde_2)
    null = per_row(params.scale, 2) ** 2
    return tuple(inv_family(
        lam * (matrices.b1 - matrices.d_tilde_1) + null * np.diag(eye(c)[c - 1]),
        lam * (matrices.b2 - matrices.d_tilde_2) + null * np.diag(eye(c)[0]),
        (c * mu1 + lam) * (c * mu1 * eye(c) - matrices.d_tilde_2) + lam * matrices.b2))


# A boundary probability below -PI_FLOOR means the pipeline broke down
# (NegativeProbability); one in (-PI_FLOOR, 0) is roundoff, which the CLI
# prints as 0.
PI_FLOOR = 1e-8

# log of the largest float: past this theta_max*k, e^{theta_max k} overflows
_LOG_MAX = math.log(np.finfo(float).max)


def _boundary(params: QueueParams, matrices: ModelMatrices, spectral: SpectralData,
              m0: np.ndarray, m1: np.ndarray, m2: np.ndarray, slope_0: np.ndarray):
    """The boundary conditions as one system of order 2c, solved at b_c = 1.

    Its unknown is the row x = [pi_{c-1}, q]: the top boundary level and
    q = w e^{U1+ k}, the coefficients of the lower branch's growing modes
    anchored at k, so only the bounded e^{U1- k} and e^{-U1+ k} appear.
    Every quantity solve stores is linear in x and b_c.  ``terms`` gives
    them for row blocks (..., r, c) of pi_{c-1} and q: on the blocks [I; 0]
    and [0; I] their 2c x c matrices, which make the system's columns; ``at``
    their values, and the lower coefficient row, on a solution row (..., 2c).
    The columns are the definition of w, w (U1+ - U1-) = F'(0) + alpha0 M0
    U1-, and the slope glue F'(k-) = F'(k+).  slope_0 takes pi_{c-1} to F'(0)
    (con4).  Returns (x, F(inf) / b_c, at, dm2 = (D_tilde_1 - D_tilde_2) M2).
    """
    c, k, lam = params.c, per_row(params.k, 1), per_row(params.lam, 2)
    m, sp = matrices, spectral
    u1m, u1p, u2m = sp.u1_minus, sp.u1_plus, sp.u2_minus
    d1, d2, d2_inv = m.d_tilde_1, m.d_tilde_2, m.d_tilde_2_inv
    e_minus = sp.phi_minus_inv @ (np.exp(sp.theta[..., :c] * k)[..., None] * sp.phi[..., :c, :])
    decay = np.exp(-sp.theta[..., c:] * k)
    e_plus_inv = sp.phi_plus_inv @ (decay[..., None] * sp.phi[..., c:, :])
    bridge = m.b1 @ m.d_tilde_1_inv @ d2
    stay = eye(c) - m.b2 @ d2_inv

    def terms(pi: np.ndarray, q: np.ndarray) -> dict[str, np.ndarray]:
        t = {"f_prime_0": pi @ slope_0}
        t["alpha0"] = t["f_prime_0"] @ d1 - lam * pi @ m.b1
        t["alpha0_m0"] = a0m0 = t["alpha0"] @ m0
        t["w"] = w = q @ e_plus_inv
        # F(k) and F'(k-) of F(x) = w (e^{U1+ x} - e^{U1- x}) + alpha0 M0 (I - e^{U1- x})
        t["f_at_k"] = f_k = q - w @ e_minus + a0m0 - a0m0 @ e_minus
        t["f_prime_at_k"] = q @ u1p - (w + a0m0) @ u1m @ e_minus
        # alpha1 = alpha0 D1^-1 D2 - lam F(k) (B1 D1^-1 D2 - B2), where alpha0 D1^-1
        # = F'(0) - lam pi_{c-1} B1 D1^-1 spares F'(0) the round trip through D1
        t["alpha1"] = t["f_prime_0"] @ d2 - lam * (pi + f_k) @ bridge + lam * f_k @ m.b2
        t["alpha2"] = t["alpha1"] @ d2_inv - t["f_prime_at_k"] + lam * f_k @ stay
        return t

    def at(x: np.ndarray) -> dict[str, np.ndarray]:
        t = terms(x[..., None, :c], x[..., None, c:])
        # the coefficients of the 2c theta roots, the growing ones (q phi+^-1) e^{-theta+ k}
        t["lower"] = _concat((-t["w"] - t["alpha0_m0"]) @ sp.phi_minus_inv,
                             x[..., None, c:] @ sp.phi_plus_inv * decay[..., None, :])
        return {name: value[..., 0, :] for name, value in t.items()}

    # The first c columns hold w (U1+ - U1-), whose rows are the columns of
    # U1+ - U1-.  Where those fail the scaled pivot test, the eigenbases behind
    # U1+ and U1- have no digits left, and the system would return an answer
    # that breaks its own invariants (test_lower_weight_pivots_tested_by_column).
    _check_diagonal((u1p - u1m).swapaxes(-1, -2))
    t = terms(eye(2 * c)[:, :c], eye(2 * c)[:, c:])
    dm2 = (d1 - d2) @ m2
    # F'(k+) = (F(k) - F(inf)) U2- - alpha2 (dm2 U2- + D_tilde_1 dm2), where
    # F(inf) = alpha1 M1 - b_c psi_c puts b_c psi_c U2- on the right-hand side
    glue = t["f_prime_at_k"] - (t["f_at_k"] - t["alpha1"] @ m1) @ u2m \
        + t["alpha2"] @ (dm2 @ u2m + d1 @ dm2)
    system = _concat(t["w"] @ (u1p - u1m) - t["f_prime_0"] - t["alpha0_m0"] @ u1m, glue)
    rhs = _concat(np.zeros(c), u2m[..., 0, :])
    x = _row_solve(system, rhs[..., None, :], "boundary system")[..., 0, :]
    return x, vec_mat(vec_mat(x, t["alpha1"]), m1) - eye(c)[0], at, dm2


def _row_solve(a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """x with x a = b for the rows b, by LAPACK: a (..., n, n) and b (..., r,
    n), each matrix of a stack on its own.  An exactly singular a raises
    Singular naming the system, or RowErrors on a stack (errors.fail)."""
    a, b = a.swapaxes(-1, -2), b.swapaxes(-1, -2)   # a^T x^T = b^T
    try:
        return np.linalg.solve(a, b).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        singular = np.zeros(len(a), dtype=bool) if a.ndim == 3 else True
    for i in range(len(a)) if a.ndim == 3 else ():      # a stack: which matrices
        try:
            np.linalg.solve(a[i], b[i] if b.ndim == 3 else b)
        except np.linalg.LinAlgError:
            singular[i] = True
    fail(singular, lambda i: Singular(f"the {name} is singular"))


@dataclass(frozen=True)
class ScalarMixture:
    """F(x) expanded into explicit exponential terms on both branches.

    Below the threshold F(x) = lower_constant + sum_i lower_weights[i]
    e^{lower_rates[i] x}, above it upper_constant + sum_i upper_weights[i]
    e^{upper_rates[i] (x - k)}; row i of a weight array multiplies rate i.
    On a stack, k and each array that a per-row parameter reaches lead with rows.
    """

    k: float
    lower_rates: np.ndarray
    lower_weights: np.ndarray
    lower_constant: np.ndarray
    upper_rates: np.ndarray              # apply to (x - k)
    upper_weights: np.ndarray
    upper_constant: np.ndarray

    def components(self, x):
        """F(x), shape x.shape + rows + (c,): rows = () on one solution, (R,) on a stack.

        Since F(0) = 0, the lower constant is minus the sum of the lower
        weights, so the lower branch sums w (e^{rx} - 1) and vanishes exactly
        at x = 0.
        """
        return self._terms(x, lambda r, y: np.expm1(r * y), lambda r, y: np.exp(r * y),
                           self.upper_constant)

    def density(self, x):
        """F'(x), shaped as ``components``; at x = k the lower branch is used."""
        slope = lambda r, y: r * np.exp(r * y)
        return self._terms(x, slope, slope, None)

    def _terms(self, x, lower, upper, constant):
        """sum_i weights[i] f(rates[i], y) on each (point, row) pair's branch:
        f = lower at y = x <= k, f = upper at y = x - k plus constant (if any)
        above it.  Shaped as ``components``; ValueError if any x is negative
        or NaN."""
        x = _nonnegative(x)
        if isinstance(x, float) and not isinstance(self.k, np.ndarray):   # one branch for all rows
            if x <= self.k:
                return vec_mat(lower(self.lower_rates, x), self.lower_weights)
            terms = vec_mat(upper(self.upper_rates, x - self.k), self.upper_weights)
            return terms if constant is None else constant + terms
        rows = self.upper_constant.shape[:-1]       # () on one solution, (R,) on a stack
        x = np.asarray(x, dtype=float)
        if rows:                                    # each point on every row
            x = x[..., None].repeat(rows[0], axis=-1)
        below = x <= self.k
        out = np.empty(x.shape + self.upper_constant.shape[-1:])
        for mask, f, rates, weights, offset, const in (
                (below, lower, self.lower_rates, self.lower_weights, None, None),
                (~below, upper, self.upper_rates, self.upper_weights, self.k, constant)):
            r = np.nonzero(mask)[-1] if rows else None      # each pair's row
            pick = lambda a, core: a if r is None or np.ndim(a) == core else a[r]
            y = x[mask] if offset is None else x[mask] - pick(offset, 0)
            terms = vec_mat(f(pick(rates, 1), y[:, None]), pick(weights, 2))
            out[mask] = terms if const is None else pick(const, 1) + terms
        return out


@dataclass(frozen=True)
class StationarySolution:
    """Immutable stationary solution; all evaluators are pure.  A stack's
    (``solve_rows``) has a row axis on each array that a per-row parameter
    reaches and a warnings tuple per row; every evaluator but verify_solution
    gives a value per row, after the axes of its points."""

    params: QueueParams
    matrices: ModelMatrices
    spectral: SpectralData
    pi_levels: tuple[np.ndarray, ...]   # level n holds [pi(j, n-j) for j <= n]
    b_c: float
    f_prime_0: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray
    m1: np.ndarray
    mixture: ScalarMixture              # F as explicit exponential terms

    @property
    def f_infinity(self) -> np.ndarray:     # F(inf), the mixture's upper constant
        return self.mixture.upper_constant

    @property
    def warnings(self) -> tuple:            # the spectral layer's
        return self.spectral.warnings

    def pi(self, i: int, j: int):
        """pi(i, j), the probability of no wait with i class-1 and j class-2
        services in progress (a value per row on a stack)."""
        if not (i >= 0 and j >= 0 and i + j < self.params.c):
            raise IndexError(f"pi({i}, {j}) needs i, j >= 0 and i + j < c = {self.params.c}")
        level = self.pi_levels[i + j]
        return float(level[i]) if level.ndim == 1 else level[:, i]

    @cached_property
    def p_wait_zero(self) -> float:
        return sum(level.sum(axis=-1) for level in self.pi_levels)

    def verify(self, rng=None) -> "ResidualReport":     # perfbench/selftest.py calls it
        return verify_solution(self, rng=rng)


def _expand(
    params: QueueParams,
    matrices: ModelMatrices,
    spectral: SpectralData,
    lower: np.ndarray,
    alpha0_m0: np.ndarray,
    f_at_k: np.ndarray,
    f_infinity: np.ndarray,
    alpha2: np.ndarray,
    dm2: np.ndarray,
) -> ScalarMixture:
    """Expand both branches into explicit (rate, weight-vector) terms.

    Lower branch: F(x) = w (e^{U1+ x} - e^{U1- x}) + alpha0 M0 (I - e^{U1- x}),
    one term per root of the below-threshold pencil; ``lower`` is the
    coefficient row of those 2c roots in their eigenbasis.  Upper branch:
    the c decaying tail modes of U2-, the threshold-memory modes (one per
    diagonal entry of D_tilde_1) and the constant F(inf).
    """
    sp, m, c = spectral, matrices, params.c
    lower_weights = lower[..., None] * sp.phi

    # Coefficient row of e^{U2- (x-k)}; the tail constant is F(inf) itself
    # (the b_c convention cancels there).
    tail_head = f_at_k - f_infinity - vec_mat(alpha2, dm2)
    b_minus = vec_mat(tail_head, sp.psi_minus_inv)
    # Memory term alpha2 e^{-D1 y} (D1 - D2) M2: rows of B1 are exact left
    # eigenvectors of D_tilde_1 by its defining conjugation.
    memory = vec_mat(alpha2, m.b1_inv)[..., None] * (m.b1 @ dm2)
    top_rates = m.delta[c - 1].diagonal(axis1=-2, axis2=-1)
    upper_rates = _concat(sp.beta[..., :c], -(per_row(params.mu1, 1) + top_rates))

    return ScalarMixture(
        k=params.k,
        lower_rates=sp.theta.copy(),
        lower_weights=lower_weights,
        lower_constant=alpha0_m0,
        upper_rates=upper_rates,
        upper_weights=_concat(b_minus[..., None] * sp.psi, memory, axis=-2),
        upper_constant=f_infinity,
    )


def _concat(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """np.concatenate, a shared array broadcast to the rows of the other."""
    return np.concatenate((a, b) if a.ndim == b.ndim else np.broadcast_arrays(a, b), axis=axis)


def _c_hat_levels(params: QueueParams, matrices: ModelMatrices,
                  table: list[np.ndarray]) -> list[np.ndarray]:
    """The boundary recursion's C_hat_0 .. C_hat_{c-2}, table's first.

    Level n solves C_hat_n T_n = B_hat_n, T_n = lambda (I - [0 | C_hat_{n-1}])
    + Delta_n, by LAPACK (_row_solve), a stack in one call (C_hat_0 =
    B_hat_0 / lambda).  It depends on lambda, mu1, mu2 and n alone, not on c
    or k, so points that share those rates as floats share a table (see
    ``solve``), which this extends to the levels params needs.  A level joins
    the table only once computed: one that raises leaves the table as it was,
    and every later point that needs it computes it again and raises the same
    error.

    Each T_n first passes the scaled diagonal pivot test (Singular, RowErrors
    on a stack).  T_n is strictly row diagonally dominant on every input
    measured, and then its diagonal is its row's largest entry, so one pass
    over |T_n| stands in for the test, which runs only where that fails.
    """
    lam, m = per_row(params.lam, 2), matrices
    for n in range(len(table), params.c - 1):
        if n == 0:
            table.append(m.b_hat[0] / lam)
            continue
        shifted = np.zeros(table[-1].shape[:-1] + (n + 1,))
        shifted[..., 1:] = table[-1]
        t = lam * (eye(n + 1) - shifted) + m.delta[n]
        magnitude = np.abs(t)
        # a row that is not strictly dominant (a NaN row, which the test
        # passes, counts as dominant)
        if np.count_nonzero(np.add.reduce(magnitude, axis=-1)
                            >= 2.0 * magnitude.diagonal(axis1=-2, axis2=-1)):
            _check_diagonal(t)
        table.append(_row_solve(t, m.b_hat[n], f"level {n} matrix"))
    return table[:params.c - 1]


def solve(params: QueueParams, levels: dict | None = None) -> StationarySolution:
    """Run the whole pipeline for validated, non-degenerate parameters: one
    point, or a stack of points that share c (see ``solve_rows``), whose
    failing rows raise RowErrors.

    ``levels`` maps (lambda, mu1, mu2) to a table of ``_c_hat_levels``, which
    solve reads and extends where all three rates are shared floats: points
    that share them (a c sweep, a k sweep's chunks) compute each level once.
    Per-row rates, or no ``levels``, get a table that no other call sees.
    """
    matrices = build_matrices(params)
    spectral = build_spectral(params, matrices)
    m0, m1, m2 = particular_matrices(params, matrices, spectral)
    # Past theta_max*k = log(float max) the mixture's growing terms overflow at k.
    growth = spectral.theta.max(axis=-1) * params.k
    fail(growth > _LOG_MAX, lambda i: NumericalError(
        f"non-finite solution: growth exponent theta_max*k = {growth[i]:.1f} "
        "(exp overflows past about 709)"))

    c, lam = params.c, per_row(params.lam, 2)
    # pi_n = pi_{n+1} C_hat_n below the top level, and F'(0) = pi_{c-1} slope_0
    rates = (params.lam, params.mu1, params.mu2)
    shared = levels is not None and not any(isinstance(r, np.ndarray) for r in rates)
    c_hat = _c_hat_levels(params, matrices, levels.setdefault(rates, []) if shared else [])
    slope_0 = lam * eye(c) + matrices.delta[c - 1]
    if c > 1:
        slope_0[..., 1:] -= lam * c_hat[c - 2]
    x, f_infinity, at, dm2 = _boundary(params, matrices, spectral, m0, m1, m2, slope_0)

    # Normalise: rows[n] = pi_n / b_c, and F(inf) / b_c.
    rows = [x[..., :c]]
    for level in reversed(c_hat):
        rows.insert(0, vec_mat(rows[0], level))
    total = np.add.reduce(f_infinity, axis=-1)
    for row in rows:
        total += row.sum(axis=-1)
    b_c = 1.0 / total
    b_c1 = per_row(b_c, 1)

    pi_levels = tuple(b_c1 * row for row in rows)
    # pi_{n-1} = pi_n C_hat_{n-1} carries a NaN on any level down to level 0
    pi = np.concatenate(pi_levels, axis=-1)
    floor = np.minimum.reduce(pi, axis=-1)
    fail(floor < -PI_FLOOR, lambda i: NegativeProbability(
        f"pi entry {floor[i]:.3e} below "
        + np.format_float_scientific(-PI_FLOOR, exp_digits=1, trim="-")))

    v = at(b_c1 * x)
    f_infinity = vec_mat(v["alpha1"], m1) - b_c1 * eye(c)[0]
    mixture = _expand(params, matrices, spectral, v["lower"], v["alpha0_m0"], v["f_at_k"],
                      f_infinity, v["alpha2"], dm2)
    _check_finite(b_c, pi, mixture)
    return StationarySolution(
        params=params,
        matrices=matrices,
        spectral=spectral,
        pi_levels=pi_levels,
        b_c=b_c,
        f_prime_0=v["f_prime_0"],
        alpha0=v["alpha0"],
        alpha1=v["alpha1"],
        m1=m1,
        mixture=mixture,
    )


def _stack(points: list[QueueParams]) -> QueueParams:
    """Points that share c as one QueueParams: each parameter they differ on
    becomes an array over them.  Equal points stay one point."""
    if len(points) == 1:
        return points[0]
    if len({p.c for p in points}) > 1:
        raise ValueError("a stack of points must share c")
    fields = {f: np.array([getattr(p, f) for p in points]) for f in ("lam", "mu1", "mu2", "k")}
    fields = {f: v if (v != v[0]).any() else float(v[0]) for f, v in fields.items()}
    return QueueParams(points[0].c, **fields)


def solve_rows(points: list[QueueParams], levels: dict | None = None
               ) -> tuple[StationarySolution | None, list[int], dict[int, VqtError]]:
    """Solve validated points that share c in one stacked pass: (the
    solution of the rows that solved, a stack or, when they are one point, a
    plain one; their indices; {row: the error its own solve raises}).  Each
    solved row is bit-identical to its own solve.  Rows that fail a check
    are dropped and the pass reruns on the rest, so none computes past its
    failure.  ``levels`` goes to ``solve``."""
    live, errors = list(range(len(points))), {}
    while live:
        try:
            return solve(_stack([points[i] for i in live]), levels), live, errors
        except RowErrors as exc:
            errors.update((live[i], e) for i, e in exc.errors.items())
            live = [row for i, row in enumerate(live) if i not in exc.errors]
        except VqtError as exc:         # a layer that every row shares failed
            errors.update(dict.fromkeys(live, exc))
            live = []
    return None, live, errors


def _check_finite(b_c, pi, mix) -> None:
    """Raise ``NumericalError`` (per row) unless pi (all levels), b_c and every
    mixture array (F(inf) is the upper constant) are finite.  Rows past the
    growth exponent's overflow left ``solve`` before, so the error names none."""
    batch = b_c.shape
    arrays = [(a, 1) for a in (pi, mix.lower_rates, mix.lower_constant,
                                mix.upper_rates, mix.upper_constant)]
    arrays += [(mix.lower_weights, 2), (mix.upper_weights, 2)]
    # one isfinite over the concatenation costs a third of one per array
    values = np.concatenate([
        (a if a.ndim == core + len(batch) else np.broadcast_to(a, batch + a.shape[-core:]))
        .reshape(batch + (-1,)) for a, core in arrays], axis=-1)
    fail(~(np.isfinite(b_c) & np.logical_and.reduce(np.isfinite(values), axis=-1)),
         lambda i: NumericalError("non-finite solution"))


def _nonnegative(x):
    """A float as is, anything else as a float array; raise on any point
    that is negative or NaN."""
    if isinstance(x, float):
        bad = not x >= 0
    else:
        x = np.asarray(x, dtype=float)
        bad = not (x >= 0).all()
    if bad:
        raise ValueError("x must be >= 0")
    return x


def eval_cdf(sol: StationarySolution, x):
    """Component vector F(x) and the total P(W <= x), of shapes x.shape +
    rows + (c,) and x.shape + rows, rows = () on one solution and (R,) on a
    stack of R.  Each entry equals the one-point call on its own row's solve.
    """
    comps = sol.mixture.components(x)
    # np.add.reduce is comps.sum() without its Python-level wrapper
    return comps, sol.p_wait_zero + np.add.reduce(comps, axis=-1)


def eval_density(sol: StationarySolution, x) -> np.ndarray:
    """Component vector F'(x), shaped as ``eval_cdf``'s F; at x = k both
    one-sided limits agree."""
    return sol.mixture.density(x)


def _moment(th: float, k: float) -> float:
    """int_0^k th x e^(th x) dx by five terms of its series about th = 0.
    ``mean_wait`` takes it below |th| k = 1e-6, where the closed form cancels
    and the series stays far below 1e-12."""
    acc = 0.0
    for n, denom in enumerate((2.0, 3.0, 8.0, 30.0, 144.0)):
        acc += th ** (n + 1) * k ** (n + 2) / denom
    return acc


def mean_wait(sol: StationarySolution) -> float:
    """E[W] = int x dF, term by term: the moment kernel on [0, k], and
    int_k^inf x r e^{r(x-k)} dx = 1/r - k for each decaying tail term.  One
    value per row of a stacked solution."""
    mix = sol.mixture
    fail(np.maximum.reduce(mix.upper_rates, axis=-1) >= 0.0,
         lambda i: DivergentIntegral("tail matrix has a nonnegative eigenvalue"))
    k, th = per_row(mix.k, 1), mix.lower_rates
    small = np.abs(th) * k < 1e-6
    eb = np.exp(th * k)
    # _moment(+-0.0, k) is +0.0, and every solve has a zero rate: only the
    # other small roots take the series
    moments = np.where(small, 0.0, k * eb - (eb - 1.0) / np.where(small, 1.0, th))
    for idx in zip(*np.nonzero(small & (th != 0.0))):
        # a k stack shares one point's rates: th and k broadcast only here
        th_i, k_i = (float(np.broadcast_to(v, small.shape)[idx]) for v in (th, k))
        moments[idx] = _moment(th_i, k_i)
    below, terms = 0.0, moments * np.add.reduce(mix.lower_weights, axis=-1)
    for term in terms.T:
        below = below + term            # the order of a sum over the terms
    above = vec_dot(1.0 / mix.upper_rates - k, np.add.reduce(mix.upper_weights, axis=-1))
    mean = below + above    # k e^{theta k} can overflow before its weight scales it
    fail(~np.isfinite(mean), lambda i: NumericalError("non-finite mean"))
    return mean


@dataclass(frozen=True)
class ResidualReport:
    """Max-abs residuals of every structural identity the solution must obey."""

    residuals: dict[str, float]
    warnings: tuple[str, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def __str__(self) -> str:
        lines = [f"{name:32s} {value:.3e}" for name, value in self.residuals.items()]
        lines += list(self.warnings)
        return "\n".join(lines)


@cache
def _balance_index(c: int) -> tuple[np.ndarray, ...]:
    """The interior states (i, j), i + j < c - 1, level by level, as rows
    (i, i + 1) and (j, j + 1) in floats, and four rows of positions in the
    concatenated pi levels with a zero appended: those of pi(i, j),
    pi(i + 1, j), pi(i, j + 1) and pi(i - 1, j), the appended zero where
    i = 0.  Made once per order and read-only."""
    n = np.repeat(np.arange(c - 1), np.arange(1, c))
    own = np.arange(n.size)                 # level n starts at n (n + 1) / 2
    i = own - n * (n + 1) // 2
    left = np.where(i > 0, own - n - 1, c * (c + 1) // 2)
    out = (np.array([i, i + 1.0]), np.array([n - i, (n - i) + 1.0]),
           np.array([own, own + n + 2, own + n + 1, left]))
    for a in out:
        a.flags.writeable = False
    return out


_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


def _balance_residual(sol: StationarySolution) -> float:
    """max |lhs - rhs| of the balance equation of every interior state, each
    entry summed in the order (lam + i mu1 + j mu2) pi(i, j) against
    (i + 1) mu1 pi(i + 1, j) + (j + 1) mu2 pi(i, j + 1) + lam pi(i - 1, j).
    Where i = 0 the last term is lam * 0.0, which moves no |lhs - rhs|."""
    p = sol.params
    ii, jj, at = _balance_index(p.c)
    pi = np.concatenate((*sol.pi_levels, _ZERO))
    (i_mu1, i1_mu1), (j_mu2, j1_mu2), (own, right, up, left) = ii * p.mu1, jj * p.mu2, pi[at]
    lhs = (p.lam + i_mu1 + j_mu2) * own
    rhs = i1_mu1 * right + j1_mu2 * up + p.lam * left
    # fmax from 0.0 skips a NaN as Python's max(worst, ...) does
    return float(np.fmax.reduce(np.abs(lhs - rhs), initial=0.0))


def _max_abs(a: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(a), axis=None))


def _phi(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z for z <= 0, continued by 1 at z = 0 (and on NaN).

    One unmasked division: fmin leaves every z < 0 as it is and sends 0, -0
    and NaN to the smallest negative double s, where expm1(s) = s and the
    quotient is exactly 1.
    """
    s = np.fmin(z, -5e-324)
    return np.expm1(s) / s


def _lower_convolution(sol: StationarySolution, x) -> np.ndarray:
    """int_0^x F(y) B1 Q1(x-y) dy in closed form, shaped as ``eval_cdf``'s F.

    B1 Q1(s) = diag(e^{-a s}) B1 with a = mu1 + diag(Delta_{c-1}), and the
    lower branch of F sums w_i (e^{r_i y} - 1), so the convolution is
    (sum_i w_i * g_i(x)) @ B1 with
    g_ij = int_0^x (e^{r_i y} - 1) e^{-a_j (x-y)} dy
         = x (e^{max(r_i, -a_j) x} phi(-|r_i + a_j| x) - phi(-a_j x)),
    phi(z) = expm1(z)/z (1 at z = 0).  phi only ever sees nonpositive
    arguments and the exponential grows no faster than F's own terms.
    """
    m, mix = sol.matrices, sol.mixture
    # -a: the rates of the threshold-memory modes, the last c upper rates;
    # r - (-a) is r + a to the bit
    r, minus_a = mix.lower_rates[:, None], mix.upper_rates[sol.params.c:]
    x = np.asarray(x, dtype=float)[..., None, None]
    # phi at -|r_i + a_j| x in rows :-1 and at -a_j x in the last row, one pass
    phi = _phi(np.concatenate((-np.abs(r - minus_a), minus_a[None])) * x)
    g = np.exp(np.maximum(r, minus_a) * x)
    g *= phi[..., :-1, :]
    g -= phi[..., -1:, :]
    g *= x
    g *= mix.lower_weights
    return np.add.reduce(g, axis=-2) @ m.b1


def _integro_residual(sol: StationarySolution, xs: np.ndarray, f: np.ndarray,
                      f_prime: np.ndarray) -> float:
    # Residual of the renewal-style identity below the threshold:
    # F'(x) = lam F(x) - lam int_0^x F(y) B1 Q1(x-y) dy + F'(0)
    #         - lam pi_top B1 (I - Q1(x)) D1^{-1},
    # with f = F(xs) and f_prime = F'(xs), one row per point.
    # B1 Q1(s) = diag(e^{-a s}) B1 turns the convolution into scalar
    # integrals of the mixture's terms, done exactly in _lower_convolution.
    m, lam = sol.matrices, sol.params.lam
    pi_top = sol.pi_levels[-1]
    rhs = (lam * f - lam * _lower_convolution(sol, xs) + sol.f_prime_0
           - lam * pi_top @ m.b1 @ (eye(sol.params.c) - tilde_q(xs, m))
           @ m.d_tilde_1_inv)
    return _max_abs(f_prime - rhs)


def verify_solution(sol: StationarySolution, rng=None) -> ResidualReport:
    """Residual report over every identity the solution is supposed to satisfy.

    Covers the boundary conditions, branch matching at the threshold, the
    interior balance equations, normalization, the null-vector orthogonality
    of the particular terms, and the integro-differential equation below the
    threshold at ten interior points drawn uniformly on [0, k) from
    ``np.random.default_rng(rng)``.  F and F' are evaluated in one pass at
    all twelve points it reads, 0, k and those ten, each on the lower branch
    with the values of a one-point ``eval_cdf``/``eval_density`` call.  It
    takes one point, not a stack.
    """
    if getattr(sol.b_c, "ndim", 0):
        raise ValueError("verify_solution takes one point: verify solve(points[i]) for row i")
    xs = np.random.default_rng(rng).uniform(0.0, sol.params.k, size=10)
    p, m, sp = sol.params, sol.matrices, sol.spectral
    mix = sol.mixture
    rates, weights = mix.lower_rates, mix.lower_weights
    ry = rates * np.concatenate(([0.0, p.k], xs))[:, None]
    f = vec_mat(np.expm1(ry), weights)                  # rows: F(0), F(k), F(xs)
    f_prime = vec_mat(rates * np.exp(ry), weights)

    slope0 = sol.pi_levels[-1] @ (p.lam * eye(p.c) + m.delta[p.c - 1])
    if p.c > 1:
        slope0[1:] -= p.lam * sol.pi_levels[-2]
    # The four boundary gaps, then alpha0 and alpha1 (for the null-mode
    # scale), are (c,) rows of one array: one abs, one max per row.
    row_max = np.maximum.reduce(np.abs(np.array((
        mix.lower_constant + np.add.reduce(weights, axis=0),
        f[1] - (mix.upper_constant + np.add.reduce(mix.upper_weights, axis=0)),
        f_prime[1] - mix.upper_rates @ mix.upper_weights,
        f_prime[0] - slope0,
        sol.alpha0, sol.alpha1))), axis=1)
    res: dict[str, float] = dict(zip(
        ("con1_F0", "con2_value_at_k", "con3_slope_at_k", "con4_slope_at_0"),
        row_max[:4].tolist()))
    res["con5_balance"] = _balance_residual(sol)
    # b_c enters with a flipped sign under the stored convention, times the
    # sum of psi_c = e_0, which is 1.
    res["con6_normalization"] = abs(
        -sol.b_c + float(np.add.reduce(sol.alpha1 @ sol.m1)) + sol.p_wait_zero - 1.0)

    scale = max(row_max[4], row_max[5], 1.0)
    res["null_mode_alpha0"] = abs(float(sol.alpha0 @ sp.phi_star_right)) / scale
    res["null_mode_alpha1"] = abs(float(sol.alpha1 @ sp.psi_c_right)) / scale

    res["integro_differential"] = _integro_residual(sol, xs, f[2:], f_prime[2:])

    return ResidualReport(residuals=res, warnings=sol.warnings)
