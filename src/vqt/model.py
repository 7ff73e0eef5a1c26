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

import numpy as np

from .errors import Degenerate, NonPositive, Unstable
from .numerics import inv

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
    """Validated queue parameters with stability/degeneracy status.

    ``degeneracy`` is None for inputs that passed the strict guards and a
    condition label otherwise (permissive construction only).
    """

    c: int
    lam: float
    mu1: float
    mu2: float
    k: float
    stable: bool = True
    degeneracy: str | None = None

    @property
    def rho(self) -> float:
        return self.lam / (self.c * self.mu2)

    @property
    def scale(self) -> float:
        return max(self.lam, self.c * self.mu1, self.c * self.mu2)

    def aggregate_rate(self, i: int, j: int) -> float:
        """Total departure intensity with i class-1 and j class-2 services."""
        return i * self.mu1 + j * self.mu2


def _check_positive(c: int, lam: float, mu1: float, mu2: float, k: float) -> None:
    if int(c) != c or c < 1:
        raise NonPositive(f"c must be a positive integer, got {c}")
    for name, value in (("lambda", lam), ("mu1", mu1), ("mu2", mu2), ("k", k)):
        if not (math.isfinite(value) and value > 0.0):
            raise NonPositive(f"{name} must be finite and > 0, got {value}")


def _degeneracy(c: int, lam: float, mu1: float, mu2: float) -> str | None:
    scale = max(lam, c * mu1, c * mu2)
    tol = EPS_DEG * scale
    checks = (
        ("lambda = c*mu1", abs(lam - c * mu1)),
        ("lambda = c*(mu1 - mu2)", abs(lam - c * (mu1 - mu2))),
        ("lambda = c*(mu2 - mu1)", abs(lam - c * (mu2 - mu1))),
        ("mu1 = mu2", abs(mu1 - mu2)),
    )
    for label, gap in checks:
        if gap <= tol:
            return label
    return None


def validate_params(c: int, lam: float, mu1: float, mu2: float, k: float) -> QueueParams:
    """Strict validation for the analytic pipeline.

    Raises NonPositive, Unstable, or Degenerate.  A Degenerate error carries
    a suggested perturbation (mu1 scaled by 1 + 1e-7) that clears the guard
    within plotting accuracy.
    """
    _check_positive(c, lam, mu1, mu2, k)
    if lam / (c * mu2) >= 1.0:
        raise Unstable(f"lambda/(c*mu2) = {lam / (c * mu2):.6g} >= 1")
    condition = _degeneracy(c, lam, mu1, mu2)
    if condition is not None:
        raise Degenerate(
            condition,
            suggestion={"c": c, "lambda": lam, "mu1": mu1 * (1 + 1e-7), "mu2": mu2, "k": k},
        )
    return QueueParams(int(c), float(lam), float(mu1), float(mu2), float(k))


def inspect_params(c: int, lam: float, mu1: float, mu2: float, k: float) -> QueueParams:
    """Permissive construction: positivity only, status recorded.

    Used by the simulator (which is the arbiter for analytically excluded
    cases) and by the Erlang reduction for mu1 = mu2.
    """
    _check_positive(c, lam, mu1, mu2, k)
    return QueueParams(
        int(c), float(lam), float(mu1), float(mu2), float(k),
        stable=lam / (c * mu2) < 1.0,
        degeneracy=_degeneracy(c, lam, mu1, mu2),
    )


@dataclass(frozen=True)
class ModelMatrices:
    """All generator matrices derived from QueueParams.

    b1/b2 drive the jump kernels below/above the threshold, delta[i] collects
    the aggregate rates on boundary level i, d_tilde_k are the triangular
    conjugations mu_k I + B_k^{-1} Delta_{c-1} B_k and d_tilde_k_inv their
    inverses B_k^{-1} diag(1 / (mu_k + delta)) B_k by the same conjugation,
    b_hat[n] are the rectangular downward-coupling matrices of the boundary
    recursion.
    """

    params: QueueParams
    b1: np.ndarray
    b2: np.ndarray
    delta: tuple[np.ndarray, ...]
    d_tilde_1: np.ndarray
    d_tilde_2: np.ndarray
    d_tilde_1_inv: np.ndarray
    d_tilde_2_inv: np.ndarray
    b_hat: tuple[np.ndarray, ...]
    b1_inv: np.ndarray
    b2_inv: np.ndarray

    @property
    def c(self) -> int:
        return self.params.c


def build_matrices(params: QueueParams) -> ModelMatrices:
    c, mu1, mu2 = params.c, params.mu1, params.mu2

    b1 = np.zeros((c, c))
    b2 = np.zeros((c, c))
    for i in range(c):
        b1[i, i] = (i + 1) * mu1
        b2[i, i] = (c - i) * mu2
        if i < c - 1:
            b1[i, i + 1] = (c - i - 1) * mu2
        if i >= 1:
            b2[i, i - 1] = i * mu1

    delta = tuple(
        np.diag([j * mu1 + (i - j) * mu2 for j in range(i + 1)]) for i in range(c)
    )

    b1_inv = inv(b1)  # triangular with positive diagonal, always invertible
    b2_inv = inv(b2)
    d_tilde_1 = mu1 * np.eye(c) + b1_inv @ delta[c - 1] @ b1
    d_tilde_2 = mu2 * np.eye(c) + b2_inv @ delta[c - 1] @ b2
    rates = np.diag(delta[c - 1])
    d_tilde_1_inv = b1_inv @ (b1 / (mu1 + rates)[:, None])
    d_tilde_2_inv = b2_inv @ (b2 / (mu2 + rates)[:, None])

    b_hat = []
    for n in range(c):
        m = np.zeros((n + 2, n + 1))
        for i in range(n + 1):
            m[i, i] = (n - i + 1) * mu2
        for i in range(1, n + 2):
            m[i, i - 1] = i * mu1
        b_hat.append(m)

    return ModelMatrices(
        params=params,
        b1=b1,
        b2=b2,
        delta=delta,
        d_tilde_1=d_tilde_1,
        d_tilde_2=d_tilde_2,
        d_tilde_1_inv=d_tilde_1_inv,
        d_tilde_2_inv=d_tilde_2_inv,
        b_hat=tuple(b_hat),
        b1_inv=b1_inv,
        b2_inv=b2_inv,
    )


def tilde_q(kappa: int, x, m: ModelMatrices) -> np.ndarray:
    """exp(-D_tilde_kappa * x) for x >= 0: shape (c, c) for a scalar x,
    (N, c, c) for an (N,) array of points.

    Computed exactly through the defining conjugation: since
    D_tilde_k = mu_k I + B_k^{-1} Delta_{c-1} B_k, the exponential is
    e^{-mu_k x} B_k^{-1} exp(-Delta_{c-1} x) B_k with a purely diagonal
    inner exponential.  No eigensolve, so near-equal rates cost nothing.
    """
    x = np.asarray(x, dtype=float)[..., None]
    if not (x >= 0).all():
        raise ValueError("x must be >= 0")
    if kappa == 1:
        b, b_inv, mu = m.b1, m.b1_inv, m.params.mu1
    elif kappa == 2:
        b, b_inv, mu = m.b2, m.b2_inv, m.params.mu2
    else:
        raise ValueError("kappa must be 1 or 2")
    core = np.exp(-np.diag(m.delta[m.c - 1]) * x)
    return np.exp(-mu * x)[..., None] * (b_inv @ (core[..., None] * b))

