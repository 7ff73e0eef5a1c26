"""Full stationary solution of the threshold queue and its evaluators.

The pipeline follows the matrix representation of the distribution: the
sub-distribution vector F(x) = [P(0 < W <= x, state i)] solves a pair of
constant-coefficient second-order linear systems, one below and one above
the threshold, glued by continuity of F and F'.  Twenty auxiliary matrices
reduce the boundary conditions to a single scalar unknown, the tail constant
b_c, which the normalization fixes.  Boundary (W = 0) probabilities follow
from a backward recursion over occupancy levels.

``solve`` expands F once into its explicit exponential mixture and stores it
on the solution; every evaluator (F, F', E[W], the residual report) reads
that mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergentIntegral, NegativeProbability, NumericalError
from .model import ModelMatrices, QueueParams, build_matrices, hat_i, tilde_q
from .numerics import _ik_scalar, inv, lu_solve, mat_func, solve_right
from .spectral import SpectralData, build_spectral

__all__ = [
    "AuxChain",
    "StationarySolution",
    "ScalarMixture",
    "ResidualReport",
    "particular_matrices",
    "h_chain",
    "solve",
    "eval_cdf",
    "eval_density",
    "mean_wait",
    "scalar_mixture",
    "verify_solution",
]


def particular_matrices(
    params: QueueParams, matrices: ModelMatrices, spectral: SpectralData
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three inverses behind the particular solutions.

    m0/m1 pin down the constant particular terms of the two branches (the
    rank-one diag corrections remove the null modes); m2 drives the memory
    term carried across the threshold by below-threshold jumps.
    """
    c, lam, mu1 = params.c, params.lam, params.mu1
    m0 = inv(lam * (matrices.b1 - matrices.d_tilde_1) + np.diag(spectral.phi_star))
    m1 = inv(lam * (matrices.b2 - matrices.d_tilde_2) + np.diag(spectral.psi_c))
    m2 = inv((c * mu1 + lam) * (c * mu1 * np.eye(c) - matrices.d_tilde_2)
             + lam * matrices.b2)
    return m0, m1, m2


@dataclass(frozen=True)
class AuxChain:
    """The twenty auxiliary matrices of the boundary-condition reduction.

    h1..h8 express F(k) and F'(k-) through F'(0); h9..h14 express F'(k+)
    through F(k), F'(0) and the tail constant; h15/h16 solve the glued system
    for F'(0); h19/h20 give the limit F(inf).  dm2 = (D_tilde_1 - D_tilde_2) M2
    is the threshold-memory factor behind h9, which the mixture's upper
    branch reuses.
    """

    h1: np.ndarray; h2: np.ndarray; h3: np.ndarray; h4: np.ndarray
    h5: np.ndarray; h6: np.ndarray; h7: np.ndarray; h8: np.ndarray
    h9: np.ndarray; h10: np.ndarray; h11: np.ndarray; h12: np.ndarray
    h13: np.ndarray; h14: np.ndarray; h15: np.ndarray; h16: np.ndarray
    h19: np.ndarray; h20: np.ndarray; dm2: np.ndarray


def _expm(sm, x: float) -> np.ndarray:
    return mat_func(sm.eig, lambda v: np.exp(v * x))


def h_chain(
    params: QueueParams,
    matrices: ModelMatrices,
    spectral: SpectralData,
    m0: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
) -> AuxChain:
    lam, k, c = params.lam, params.k, params.c
    b1, b2 = matrices.b1, matrices.b2
    d1, d2 = matrices.d_tilde_1, matrices.d_tilde_2
    u1m, u1p, u2m = spectral.u1_minus, spectral.u1_plus, spectral.u2_minus
    eye = np.eye(c)

    e_minus = _expm(u1m, k)
    e_plus = _expm(u1p, k)
    du = u1p.mat - u1m.mat

    # h1 and h5 share du: one solve with both right-hand sides side by side
    # (back substitution treats each column on its own)
    h1, h5 = np.hsplit(lu_solve(du, np.hstack(
        [e_plus - e_minus, u1p.mat @ e_plus - u1m.mat @ e_minus])), 2)
    h2 = m0 @ (eye - e_minus + u1m.mat @ h1)
    h3 = h1 + d1 @ h2
    h4 = -lam * b1 @ h2
    h6 = m0 @ (u1m.mat @ e_minus - u1m.mat @ h5)
    h7 = h5 - d1 @ h6
    h8 = lam * b1 @ h6

    d1_inv, d2_inv = matrices.d_tilde_1_inv, matrices.d_tilde_2_inv
    dm2 = (d1 - d2) @ m2
    h9 = dm2 @ u2m.mat + d1 @ dm2
    h10 = u2m.mat - lam * (eye - b2 @ d2_inv) @ h9
    h11 = m1 @ u2m.mat + d2_inv @ h9
    bridge = b1 @ d1_inv @ d2          # recurring factor B1 D1^{-1} D2
    h12 = h10 + lam * (bridge - b2) @ h11
    h13 = d2 @ h11
    h14 = lam * bridge @ h11

    # Sign convention: h15 carries a leading minus (and h19 compensates), so
    # the level images psi_c @ h_hat_n come out nonpositive and the tail
    # constant b_c negative.  Only products of the pair are observable.
    core = h7 - h7 @ h9 - h3 @ h12 + h13
    h15 = -u2m.mat @ inv(core)
    h16 = (h14 + h4 @ h12 - h8 + h8 @ h9) @ lu_solve(u2m.mat, -h15)

    h17 = d2 @ m1 - lam * h3 @ (bridge - b2) @ m1
    h18 = lam * bridge @ m1 + lam * h4 @ (bridge - b2) @ m1
    h19 = -(eye + h15 @ h17)
    h20 = h16 @ h17 - h18

    return AuxChain(h1, h2, h3, h4, h5, h6, h7, h8, h9, h10,
                    h11, h12, h13, h14, h15, h16, h19, h20, dm2)


@dataclass(frozen=True)
class ScalarMixture:
    """F(x) expanded into explicit exponential terms on both branches.

    Below the threshold F(x) = lower_constant + sum_i lower_weights[i]
    e^{lower_rates[i] x}, above it upper_constant + sum_i upper_weights[i]
    e^{upper_rates[i] (x - k)}; row i of a weight array multiplies rate i.
    """

    k: float
    lower_rates: np.ndarray
    lower_weights: np.ndarray
    lower_constant: np.ndarray
    upper_rates: np.ndarray              # apply to (x - k)
    upper_weights: np.ndarray
    upper_constant: np.ndarray

    def components(self, x):
        """F(x): shape (c,) for a scalar x, x.shape + (c,) for an array.

        Since F(0) = 0, the lower constant is minus the sum of the lower
        weights, so the lower branch sums w (e^{rx} - 1) and vanishes exactly
        at x = 0.
        """
        if isinstance(x, float):        # one-point fast path
            if x <= self.k:
                return np.expm1(self.lower_rates * x) @ self.lower_weights
            return self.upper_constant + np.exp(self.upper_rates * (x - self.k)) @ self.upper_weights
        out, below, x_lo, x_up = self._split(x)
        out[below] = _rows(np.expm1(self.lower_rates * x_lo), self.lower_weights)
        out[~below] = self.upper_constant + _rows(np.exp(self.upper_rates * x_up),
                                                  self.upper_weights)
        return out

    def density(self, x):
        """F'(x), shaped as ``components``; at x = k the lower branch is used."""
        if isinstance(x, float):
            if x <= self.k:
                return (self.lower_rates * np.exp(self.lower_rates * x)) @ self.lower_weights
            return (self.upper_rates * np.exp(self.upper_rates * (x - self.k))) @ self.upper_weights
        out, below, x_lo, x_up = self._split(x)
        out[below] = _rows(self.lower_rates * np.exp(self.lower_rates * x_lo),
                           self.lower_weights)
        out[~below] = _rows(self.upper_rates * np.exp(self.upper_rates * x_up),
                            self.upper_weights)
        return out

    def _split(self, x):
        """Output buffer, lower-branch mask, and the points of each branch as
        columns (the upper ones offset by k)."""
        x = np.asarray(x, dtype=float)
        below = x <= self.k
        out = np.empty(x.shape + self.upper_constant.shape)
        return out, below, x[below][:, None], (x[~below] - self.k)[:, None]


def _rows(e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise e[n] @ w.  The stacked 1 x m @ m x c products take the same
    gemv as a one-point call, so every row is bit-identical to it; a plain
    e @ w goes to gemm and moves the last digits."""
    return (e[:, None, :] @ w)[:, 0]


@dataclass(frozen=True)
class StationarySolution:
    """Immutable stationary solution; all evaluators are pure."""

    params: QueueParams
    matrices: ModelMatrices
    spectral: SpectralData
    pi_levels: tuple[np.ndarray, ...]   # level n holds [pi(j, n-j) for j <= n]
    b_c: float
    f_prime_0: np.ndarray
    f_at_k: np.ndarray
    f_prime_at_k: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray
    m1: np.ndarray
    h: AuxChain
    f_infinity: np.ndarray
    expansion: ScalarMixture            # F as explicit exponential terms
    warnings: tuple[str, ...] = ()

    def pi(self, i: int, j: int) -> float:
        return float(self.pi_levels[i + j][i])

    @cached_property
    def p_wait_zero(self) -> float:
        return float(sum(level.sum() for level in self.pi_levels))

    def cdf(self, x: float) -> tuple[np.ndarray, float]:
        return eval_cdf(self, x)

    def density(self, x: float) -> np.ndarray:
        return eval_density(self, x)

    def mean(self) -> float:
        return mean_wait(self)

    def mixture(self) -> ScalarMixture:
        return scalar_mixture(self)

    def verify(self, rng=None) -> "ResidualReport":
        return verify_solution(self, rng=rng)


def _expand(
    params: QueueParams,
    matrices: ModelMatrices,
    spectral: SpectralData,
    f_prime_0: np.ndarray,
    alpha0_m0: np.ndarray,
    f_at_k: np.ndarray,
    f_infinity: np.ndarray,
    alpha2: np.ndarray,
    dm2: np.ndarray,
) -> ScalarMixture:
    """Expand both branches into explicit (rate, weight-vector) terms.

    Lower branch: F(x) = w (e^{U1+ x} - e^{U1- x}) + alpha0 M0 (I - e^{U1- x})
    with w = (F'(0) + alpha0 M0 U1-) (U1+ - U1-)^{-1}, one term per root of
    the below-threshold pencil.  Upper branch: the c decaying tail modes of
    U2-, the threshold-memory modes (one per diagonal entry of D_tilde_1) and
    the constant F(inf).
    """
    sp, m, c = spectral, matrices, params.c
    w = solve_right(f_prime_0 + alpha0_m0 @ sp.u1_minus.mat,
                    sp.u1_plus.mat - sp.u1_minus.mat)
    a_minus = (-w - alpha0_m0) @ sp.u1_minus.eig.inverse_vectors
    a_plus = w @ sp.u1_plus.eig.inverse_vectors
    lower_weights = np.concatenate([a_minus, a_plus])[:, None] * sp.phi

    # Coefficient row of e^{U2- (x-k)}; the tail constant is F(inf) itself
    # (the b_c convention cancels there).
    tail_head = f_at_k - f_infinity - alpha2 @ dm2
    b_minus = tail_head @ sp.u2_minus.eig.inverse_vectors
    # Memory term alpha2 e^{-D1 y} (D1 - D2) M2: rows of B1 are exact left
    # eigenvectors of D_tilde_1 by its defining conjugation.
    memory = (alpha2 @ m.b1_inv)[:, None] * (m.b1 @ dm2)
    upper_rates = np.concatenate([sp.beta[:c], -(params.mu1 + np.diag(m.delta[c - 1]))])

    return ScalarMixture(
        k=params.k,
        lower_rates=sp.theta.copy(),
        lower_weights=lower_weights,
        lower_constant=alpha0_m0,
        upper_rates=upper_rates,
        upper_weights=np.concatenate([b_minus[:, None] * sp.psi[:c], memory]),
        upper_constant=f_infinity.copy(),
    )


def solve(params: QueueParams) -> StationarySolution:
    """Run the whole pipeline for validated, non-degenerate parameters."""
    matrices = build_matrices(params)
    spectral = build_spectral(params, matrices)
    m0, m1, m2 = particular_matrices(params, matrices, spectral)
    # Past theta_max*k of about 709, exp of the growth modes overflows in
    # h_chain.  The inf and NaN it leaves end in one NumericalError
    # (_check_finite's, or a Singular pivot), so numpy's warnings would only
    # repeat it.  The scope is kept to h_chain: ufuncs run slower under a
    # non-default errstate.
    with np.errstate(over="ignore", invalid="ignore"):
        h = h_chain(params, matrices, spectral, m0, m1, m2)

    c, lam = params.c, params.lam
    psi_c = spectral.psi_c

    # Backward recursion pi_n = pi_{n+1} C_hat_n over boundary levels; the
    # top level couples to the continuous part through h15/h16.
    c_hat: list[np.ndarray | None] = [None] * c
    if c > 1:
        c_hat[0] = matrices.b_hat[0] / lam
        for n in range(1, c - 1):
            inner = lam * (np.eye(n + 1) - c_hat[n - 1] @ hat_i(n)) + matrices.delta[n]
            c_hat[n] = matrices.b_hat[n] @ inv(inner)
    inner_top = lam * np.eye(c) + matrices.delta[c - 1] - h.h16
    if c > 1:
        inner_top -= lam * c_hat[c - 2] @ hat_i(c - 1)
    c_hat[c - 1] = -h.h15 @ inv(inner_top)

    h_hat: list[np.ndarray | None] = [None] * c
    h_hat[c - 1] = c_hat[c - 1]
    for n in range(c - 2, -1, -1):
        h_hat[n] = h_hat[n + 1] @ c_hat[n]

    ones = np.ones(c)
    total = h.h19 @ ones + h_hat[c - 1] @ (h.h20 @ ones)
    for n in range(c):
        total = total + h_hat[n] @ np.ones(n + 1)
    b_c = 1.0 / float(psi_c @ total)

    pi_levels = tuple(b_c * (psi_c @ h_hat[n]) for n in range(c))
    floor = min(level.min() for level in pi_levels)
    if floor < -1e-8:
        raise NegativeProbability(f"pi entry {floor:.3e} below -1e-8")

    pi_top = pi_levels[c - 1]
    f_prime_0 = pi_top @ h.h16 - b_c * (psi_c @ h.h15)
    f_at_k = f_prime_0 @ h.h3 + pi_top @ h.h4
    f_prime_at_k = f_prime_0 @ h.h7 + pi_top @ h.h8
    f_infinity = pi_top @ h.h20 + b_c * (psi_c @ h.h19)

    d1, d2 = matrices.d_tilde_1, matrices.d_tilde_2
    d1_inv, d2_inv = matrices.d_tilde_1_inv, matrices.d_tilde_2_inv
    alpha0 = f_prime_0 @ d1 - lam * pi_top @ matrices.b1
    bridge = alpha0 @ d1_inv @ d2
    alpha1 = bridge - lam * f_at_k @ (matrices.b1 @ d1_inv @ d2 - matrices.b2)
    alpha2 = alpha1 @ d2_inv - f_prime_at_k \
        + lam * f_at_k @ (np.eye(c) - matrices.b2 @ d2_inv)

    expansion = _expand(params, matrices, spectral, f_prime_0, alpha0 @ m0,
                        f_at_k, f_infinity, alpha2, h.dm2)
    _check_finite(params, spectral, b_c, pi_levels, f_infinity, expansion)
    return StationarySolution(
        params=params,
        matrices=matrices,
        spectral=spectral,
        pi_levels=pi_levels,
        b_c=b_c,
        f_prime_0=f_prime_0,
        f_at_k=f_at_k,
        f_prime_at_k=f_prime_at_k,
        alpha0=alpha0,
        alpha1=alpha1,
        m1=m1,
        h=h,
        f_infinity=f_infinity,
        expansion=expansion,
        warnings=spectral.warnings,
    )


def _check_finite(params, spectral, b_c, pi_levels, f_infinity, mix) -> None:
    """Raise ``NumericalError`` unless pi, b_c, F(inf) and every mixture array
    are finite.  The usual cause is exp overflow in ``h_chain`` once the
    growth exponent theta_max*k of the increasing modes passes about 709."""
    arrays = (*pi_levels, f_infinity, mix.lower_rates, mix.lower_weights,
              mix.lower_constant, mix.upper_rates, mix.upper_weights, mix.upper_constant)
    # one isfinite over the concatenation costs a third of one per array
    values = np.concatenate([a.ravel() for a in arrays])
    if not (math.isfinite(b_c) and np.isfinite(values).all()):
        growth = float(spectral.theta.max() * params.k)
        raise NumericalError(
            f"non-finite solution: growth exponent theta_max*k = {growth:.1f} "
            "(exp overflows past about 709)")


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
    """Component vector F(x) and the total P(W <= x).

    A scalar x gives shapes (c,) and float; an (N,) array of points gives
    (N, c) and (N,), each row equal to the one-point call.
    """
    x = _nonnegative(x)
    comps = sol.expansion.components(x)
    if comps.ndim == 1:
        # np.add.reduce is comps.sum() without its Python-level wrapper
        return comps, sol.p_wait_zero + float(np.add.reduce(comps))
    return comps, sol.p_wait_zero + comps.sum(axis=-1)


def eval_density(sol: StationarySolution, x) -> np.ndarray:
    """Component vector F'(x), shape (c,) or (N, c) as in ``eval_cdf``; at
    x = k both one-sided limits agree."""
    return sol.expansion.density(_nonnegative(x))


def mean_wait(sol: StationarySolution) -> float:
    """E[W] = int x dF, term by term: the moment kernel on [0, k], and
    int_k^inf x r e^{r(x-k)} dx = 1/r - k for each decaying tail term."""
    mix = sol.expansion
    if mix.upper_rates.max() >= 0.0:
        raise DivergentIntegral("tail matrix has a nonnegative eigenvalue")
    below = sum(_ik_scalar(r, 0.0, mix.k) * w.sum()
                for r, w in zip(mix.lower_rates.tolist(), mix.lower_weights))
    above = (1.0 / mix.upper_rates - mix.k) @ mix.upper_weights.sum(axis=1)
    return float(below + above)


def scalar_mixture(sol: StationarySolution) -> ScalarMixture:
    """The explicit exponential terms of F that ``solve`` expanded."""
    return sol.expansion


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


def _balance_residual(sol: StationarySolution) -> float:
    p, worst = sol.params, 0.0
    for n in range(p.c - 1):           # interior levels i + j < c - 1
        for i in range(n + 1):
            j = n - i
            lhs = (p.lam + i * p.mu1 + j * p.mu2) * sol.pi(i, j)
            rhs = (i + 1) * p.mu1 * sol.pi(i + 1, j) + (j + 1) * p.mu2 * sol.pi(i, j + 1)
            if i > 0:
                rhs += p.lam * sol.pi(i - 1, j)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _phi(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z for z <= 0, continued by 1 at z = 0."""
    safe = np.where(z < 0.0, z, -1.0)
    return np.where(z < 0.0, np.expm1(safe) / safe, 1.0)


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
    m, mix = sol.matrices, sol.expansion
    a = sol.params.mu1 + np.diag(m.delta[sol.params.c - 1])
    r = mix.lower_rates[:, None]
    x = np.asarray(x, dtype=float)[..., None, None]
    g = x * (np.exp(np.maximum(r, -a) * x) * _phi(-np.abs(r + a) * x) - _phi(-a * x))
    return (mix.lower_weights * g).sum(axis=-2) @ m.b1


def _integro_residual(sol: StationarySolution, xs: np.ndarray) -> float:
    # Residual of the renewal-style identity below the threshold:
    # F'(x) = lam F(x) - lam int_0^x F(y) B1 Q1(x-y) dy + F'(0)
    #         - lam pi_top B1 (I - Q1(x)) D1^{-1}.
    # B1 Q1(s) = diag(e^{-a s}) B1 turns the convolution into scalar
    # integrals of the mixture's terms, done exactly in _lower_convolution.
    # Every term is evaluated at all points at once, one row per point.
    m, lam = sol.matrices, sol.params.lam
    pi_top = sol.pi_levels[-1]
    rhs = (lam * eval_cdf(sol, xs)[0] - lam * _lower_convolution(sol, xs) + sol.f_prime_0
           - lam * pi_top @ m.b1 @ (np.eye(sol.params.c) - tilde_q(1, xs, m))
           @ m.d_tilde_1_inv)
    return float(np.max(np.abs(eval_density(sol, xs) - rhs)))


def verify_solution(sol: StationarySolution, rng=None) -> ResidualReport:
    """Residual report over every identity the solution is supposed to satisfy.

    Covers the boundary conditions, branch matching at the threshold, the
    interior balance equations, normalization, the null-vector orthogonality
    of the particular terms, and the integro-differential equation below the
    threshold at random interior points.
    """
    rng = np.random.default_rng(rng)
    p, m, sp = sol.params, sol.matrices, sol.spectral
    mix = sol.expansion
    res: dict[str, float] = {}

    res["con1_F0"] = float(np.max(np.abs(mix.lower_constant + mix.lower_weights.sum(axis=0))))
    res["con2_value_at_k"] = float(np.max(np.abs(
        mix.components(p.k) - (mix.upper_constant + mix.upper_weights.sum(axis=0))
    )))
    res["con3_slope_at_k"] = float(np.max(np.abs(
        mix.density(p.k) - mix.upper_rates @ mix.upper_weights
    )))

    pi_top = sol.pi_levels[-1]
    slope0 = pi_top @ (p.lam * np.eye(p.c) + m.delta[p.c - 1])
    if p.c > 1:
        slope0 = slope0 - p.lam * sol.pi_levels[-2] @ m.i_hat
    res["con4_slope_at_0"] = float(np.max(np.abs(mix.density(0.0) - slope0)))

    res["con5_balance"] = _balance_residual(sol)
    # b_c enters with a flipped sign under the stored convention.
    res["con6_normalization"] = abs(
        -sol.b_c * float(sp.psi_c.sum()) + float((sol.alpha1 @ sol.m1).sum())
        + sol.p_wait_zero - 1.0
    )

    scale = max(np.abs(sol.alpha0).max(), np.abs(sol.alpha1).max(), 1.0)
    res["null_mode_alpha0"] = abs(float(sol.alpha0 @ sp.phi_star_right)) / scale
    res["null_mode_alpha1"] = abs(float(sol.alpha1 @ sp.psi_c_right)) / scale

    xs = rng.uniform(0.0, p.k, size=10)
    res["integro_differential"] = _integro_residual(sol, xs)

    return ResidualReport(residuals=res, warnings=sol.warnings)
