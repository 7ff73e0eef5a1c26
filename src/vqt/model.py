"""Model parameters and the static matrices of the solution pipeline.

The queue has c identical servers, Poisson(lambda) arrivals, and a delay
threshold k: a customer whose virtual queueing time at arrival is <= k is
served at rate mu1, otherwise at rate mu2.  Everything downstream is built
from a handful of structured matrices over the server-composition states
(i class-1 services, j class-2 services in progress).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import Degenerate, NonPositive, Unstable
from .numerics import eye, inv

__all__ = [
    "QueueParams",
    "validate_params",
    "inspect_params",
    "ModelMatrices",
    "build_matrices",
    "tilde_q",
    "EPS_DEG",
]

# Relative guard for the eigenvalue-distinctness conditions.  Separations
# below this make the eigenvector inversions useless in double precision.
EPS_DEG = 1e-9


@dataclass(frozen=True)
class QueueParams:
    """The queue's five inputs; stability and the rate scale derive from them.

    A stack of points that share c (see ``solver.solve_rows``) is one
    QueueParams whose lam, mu1, mu2 or k is a float array over the rows; a
    parameter that every row shares stays a float, and everything computed
    from shared parameters alone is computed once and broadcast.
    """

    c: int
    lam: float
    mu1: float
    mu2: float
    k: float

    @property
    def rho(self) -> float:
        return self.lam / (self.c * self.mu2)

    @property
    def stable(self) -> bool:
        return self.rho < 1.0

    @cached_property
    def scale(self) -> float:
        return np.maximum(np.maximum(self.lam, self.c * self.mu1), self.c * self.mu2)


def _check_positive(c: int, lam: float, mu1: float, mu2: float, k: float) -> None:
    if int(c) != c or c < 1:
        raise NonPositive(f"c must be a positive integer, got {c}")
    for name, value in (("lambda", lam), ("mu1", mu1), ("mu2", mu2), ("k", k)):
        if not (math.isfinite(value) and value > 0.0):
            raise NonPositive(f"{name} must be finite and > 0, got {value}")


def check_stable(params: QueueParams) -> QueueParams:
    """params, or Unstable where lambda/(c*mu2) >= 1."""
    if not params.stable:
        raise Unstable(f"lambda/(c*mu2) = {params.rho:.6g} >= 1")
    return params


def validate_params(c: int, lam: float, mu1: float, mu2: float, k: float) -> QueueParams:
    """Strict validation for the analytic pipeline.

    Raises NonPositive, Unstable, or Degenerate.  A Degenerate error carries
    a suggested perturbation (mu1 scaled by 1 + 1e-7) that clears the guard
    within plotting accuracy.
    """
    params = check_stable(inspect_params(c, lam, mu1, mu2, k))
    tol = EPS_DEG * max(lam, c * mu1, c * mu2)
    checks = (
        ("lambda = c*mu1", abs(lam - c * mu1)),
        ("lambda = c*(mu1 - mu2)", abs(lam - c * (mu1 - mu2))),
        ("lambda = c*(mu2 - mu1)", abs(lam - c * (mu2 - mu1))),
        ("mu1 = mu2", abs(mu1 - mu2)),
    )
    for condition, gap in checks:
        if gap <= tol:
            raise Degenerate(condition, suggestion={
                "c": c, "lambda": lam, "mu1": mu1 * (1 + 1e-7), "mu2": mu2, "k": k})
    return params


def inspect_params(c: int, lam: float, mu1: float, mu2: float, k: float) -> QueueParams:
    """Permissive construction: positivity only.

    Used by the simulator (which is the arbiter for analytically excluded
    cases) and by the Erlang reduction for mu1 = mu2.
    """
    _check_positive(c, lam, mu1, mu2, k)
    return QueueParams(int(c), float(lam), float(mu1), float(mu2), float(k))


def per_row(x, ndim: int):
    """A parameter shaped to broadcast against arrays with ``ndim`` axes
    beyond the row axis: a shared float as it is, a per-row array (B,) as
    (B, 1, ..., 1)."""
    return x[(..., *(None,) * ndim)] if isinstance(x, np.ndarray) else x


@dataclass(frozen=True)
class ModelMatrices:
    """All generator matrices, which (c, mu1, mu2) determine.

    b1/b2 drive the jump kernels below/above the threshold, delta[i] collects
    the aggregate rates on boundary level i, d_tilde_k are the triangular
    conjugations mu_k I + B_k^{-1} Delta_{c-1} B_k and d_tilde_k_inv their
    inverses B_k^{-1} diag(1 / (mu_k + delta)) B_k by the same conjugation,
    b_hat[n] (n < c - 1) are the downward-coupling matrices of the boundary
    recursion.  For per-row mu1 or mu2 every matrix has a leading row axis;
    a stack that shares them (a lambda or k sweep) shares one ModelMatrices.
    """

    c: int
    mu1: float
    b1: np.ndarray
    b2: np.ndarray
    delta: tuple[np.ndarray, ...]
    d_tilde_1: np.ndarray
    d_tilde_2: np.ndarray
    d_tilde_1_inv: np.ndarray
    d_tilde_2_inv: np.ndarray
    b_hat: tuple[np.ndarray, ...]
    b1_inv: np.ndarray


@cache
def _coefficients(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, tuple]:
    """(at, k1, k2, size, plan): B1, B2, Delta_0..c-1 and B_hat_0..c-2 are
    each k1 mu1 + k2 mu2, entry by entry the model's own sums (a lone term
    plus 0.0 is itself).  Laid out flat one after another they fill size
    entries; plan gives each matrix's (start, stop, shape) there, and at
    the positions of the entries with a term, whose coefficients are k1
    and k2 (all three read-only).  Every other entry is 0 mu1 + 0 mu2 = 0.0."""
    d, r = np.diag, np.arange(c + 1.0)[:, None]
    pairs = ((d(r[1:, 0]), d(r[c - 1:0:-1, 0], 1)), (d(r[1:c, 0], -1), d(r[c:0:-1, 0])),
             *((d(r[:n + 1, 0]), d(n - r[:n + 1, 0])) for n in range(c)),
             *((np.eye(n + 2, n + 1, -1) * r[:n + 2], np.eye(n + 2, n + 1) * (n + 1 - r[:n + 2]))
               for n in range(c - 1)))
    stops = np.cumsum([a.size for a, _ in pairs]).tolist()
    plan = tuple((stop - a.size, stop, a.shape) for (a, _), stop in zip(pairs, stops))
    k1, k2 = (np.concatenate([pair[i].ravel() for pair in pairs]) for i in (0, 1))
    at = np.flatnonzero(k1 + k2)
    out = at, k1[at], k2[at]
    for a in out:
        a.flags.writeable = False
    return *out, stops[-1], plan


def build_matrices(params: QueueParams) -> ModelMatrices:
    c = params.c
    mu1, mu2 = per_row(params.mu1, 2), per_row(params.mu2, 2)
    at, k1, k2, size, plan = _coefficients(c)
    # all 2c + 1 coefficient matrices in one pass over the entries with a
    # term, as read-only views of one array: no matrix can be written
    # through into its neighbours
    terms = k1 * per_row(params.mu1, 1) + k2 * per_row(params.mu2, 1)
    lead = terms.shape[:-1]
    flat = np.zeros(lead + (size,))
    flat[..., at] = terms
    flat.flags.writeable = False
    b1, b2, *rest = (flat[..., start:stop].reshape(lead + shape) for start, stop, shape in plan)
    delta, b_hat = tuple(rest[:c]), tuple(rest[c:])

    b1_inv = inv(b1)  # triangular with positive diagonal, always invertible
    b2_inv = inv(b2)
    d_tilde_1 = mu1 * eye(c) + b1_inv @ delta[c - 1] @ b1
    d_tilde_2 = mu2 * eye(c) + b2_inv @ delta[c - 1] @ b2
    rates = delta[c - 1].diagonal(axis1=-2, axis2=-1)
    d_tilde_1_inv = b1_inv @ (b1 / (per_row(params.mu1, 1) + rates)[..., None])
    d_tilde_2_inv = b2_inv @ (b2 / (per_row(params.mu2, 1) + rates)[..., None])

    return ModelMatrices(
        c=c,
        mu1=params.mu1,
        b1=b1,
        b2=b2,
        delta=delta,
        d_tilde_1=d_tilde_1,
        d_tilde_2=d_tilde_2,
        d_tilde_1_inv=d_tilde_1_inv,
        d_tilde_2_inv=d_tilde_2_inv,
        b_hat=b_hat,
        b1_inv=b1_inv,
    )


def tilde_q(x, m: ModelMatrices) -> np.ndarray:
    """exp(-D_tilde_1 * x) for x >= 0, the jump kernel below the threshold:
    shape (c, c) for a scalar x, (N, c, c) for an (N,) array of points.

    Computed exactly through the defining conjugation: since
    D_tilde_1 = mu1 I + B1^{-1} Delta_{c-1} B1, the exponential is
    e^{-mu1 x} B1^{-1} exp(-Delta_{c-1} x) B1 with a purely diagonal
    inner exponential.  No eigensolve, so near-equal rates cost nothing.
    """
    x = np.asarray(x, dtype=float)[..., None]
    if not np.minimum.reduce(x, axis=None, initial=0.0) >= 0:     # NaN fails too
        raise ValueError("x must be >= 0")
    core = np.exp(-m.delta[m.c - 1].diagonal() * x)
    return np.exp(-m.mu1 * x)[..., None] * (m.b1_inv @ (core[..., None] * m.b1))
