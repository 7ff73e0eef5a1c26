"""Closed-form reference models used as independent oracles.

The single-server case admits an explicit two-branch exponential density;
equal service rates collapse the model to a plain M/M/c queue, whose waiting
time follows the textbook Erlang-C law.  Both are implemented from scratch
(no shared code with the general solver) so agreement is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError, PoleParameter, Unstable
from .model import EPS_DEG, QueueParams

__all__ = [
    "SingleServerSolution",
    "ErlangCSolution",
    "single_server",
    "erlang_c",
    "erlang_c_prob",
]


def _point(x: float) -> float:
    """x itself; NaN raises, as in solver.eval_cdf and eval_density."""
    if math.isnan(x):
        raise ValueError("x must be >= 0")
    return x


@dataclass(frozen=True)
class SingleServerSolution:
    """c = 1 stationary law: density is one exponential below the threshold
    and a mixture of two above it."""

    params: QueueParams
    pi00: float
    rate_below: float        # density coef_below * exp(-rate_below * x) on (0, k)
    coef_below: float
    rate_slow: float         # tail mixture: coef_slow e^{-rate_slow (x-k)} + ...
    coef_slow: float
    rate_fast: float
    coef_fast: float

    def density(self, x: float) -> float:
        if _point(x) <= 0:
            return 0.0
        k = self.params.k
        if x <= k:
            return self.coef_below * math.exp(-self.rate_below * x)
        y = x - k
        return (self.coef_slow * math.exp(-self.rate_slow * y)
                + self.coef_fast * math.exp(-self.rate_fast * y))

    def cdf(self, x: float) -> float:
        """P(W <= x) by analytic integration of the density branches."""
        if _point(x) < 0:
            return 0.0
        if x == 0:
            return self.pi00
        k = self.params.k
        below = self.coef_below / self.rate_below
        if x <= k:
            return self.pi00 + below * (1.0 - math.exp(-self.rate_below * x))
        at_k = self.pi00 + below * (1.0 - math.exp(-self.rate_below * k))
        y = x - k
        return (at_k
                + self.coef_slow / self.rate_slow * (1.0 - math.exp(-self.rate_slow * y))
                + self.coef_fast / self.rate_fast * (1.0 - math.exp(-self.rate_fast * y)))


def single_server(params: QueueParams) -> SingleServerSolution:
    """Exact closed form for c = 1.

    Below the threshold the density is lam * pi00 * e^{-(mu1-lam) x}; above
    it, the excursion starts with one rate-mu1 jump and then behaves like an
    M/M/1 workload at rate mu2, giving a two-exponential mixture.  The
    displayed mixture degenerates at mu2 - mu1 - lam = 0.
    """
    if params.c != 1:
        raise ValueError("single_server requires c = 1")
    lam, mu1, mu2, k = params.lam, params.mu1, params.mu2, params.k
    if lam >= mu2:
        raise Unstable(f"lambda/mu2 = {lam / mu2:.6g} >= 1")
    gap = mu2 - mu1 - lam
    if abs(gap) <= EPS_DEG * max(lam, mu1, mu2):
        raise PoleParameter("mu2 - mu1 - lambda = 0: branch formula degenerates")

    r1 = mu1 / lam
    r2 = mu2 / lam
    try:
        growth = math.exp((lam - mu1) * k)
    except OverflowError:
        raise NumericalError(f"non-finite solution: growth exponent (lambda - mu1)*k = "
                             f"{(lam - mu1) * k:.1f} (exp overflows past about 709)") from None
    pi00 = (r1 - 1.0) * (r2 - 1.0) / (r1 * (r2 - 1.0) - (mu2 / mu1 - 1.0) * growth)
    level = lam * pi00 * growth   # density just below k
    return SingleServerSolution(
        params=params,
        pi00=pi00,
        rate_below=mu1 - lam,
        coef_below=lam * pi00,
        rate_slow=mu2 - lam,
        coef_slow=-level * lam / gap,
        rate_fast=mu1,
        coef_fast=level * (mu2 - mu1) / gap,
    )


def erlang_c_prob(c: int, offered: float) -> float:
    """Textbook Erlang-C probability of waiting, C(c, a) with a = lambda/mu.

    C = 1 / (1 + (1 - rho) s), where s = sum_{n<c} (a^n/n!) / (a^c/c!) is
    summed from n = c - 1 down: each term is a ratio of partial terms, so
    none overflows where C is representable, and an s that does overflow
    gives C = 0, its limit.  The result is finite at any c.
    """
    rho = offered / c
    if rho >= 1.0:
        raise Unstable(f"utilization {rho:.6g} >= 1")
    term = acc = c / offered
    for n in range(c - 1, 0, -1):
        term *= n / offered
        acc += term
    return 1.0 / (1.0 + (1.0 - rho) * acc)


@dataclass(frozen=True)
class ErlangCSolution:
    """Plain M/M/c waiting-time law: P(W > x) = C * exp(-(c mu - lambda) x)."""

    params: QueueParams
    c_prob: float
    decay: float

    def cdf(self, x: float) -> float:
        if _point(x) < 0:
            return 0.0
        return 1.0 - self.c_prob * math.exp(-self.decay * x)

    def density(self, x: float) -> float:
        if _point(x) <= 0:
            return 0.0
        return self.c_prob * self.decay * math.exp(-self.decay * x)

    @property
    def p_wait_zero(self) -> float:
        return 1.0 - self.c_prob

    def mean(self) -> float:
        return self.c_prob / self.decay


def erlang_c(params: QueueParams) -> ErlangCSolution:
    """mu1 = mu2 reduction: the threshold is irrelevant."""
    if params.mu1 != params.mu2:
        raise ValueError("erlang_c requires mu1 == mu2 exactly")
    lam, mu, c = params.lam, params.mu2, params.c
    if lam / (c * mu) >= 1.0:
        raise Unstable(f"lambda/(c*mu) = {lam / (c * mu):.6g} >= 1")
    return ErlangCSolution(
        params=params,
        c_prob=erlang_c_prob(c, lam / mu),
        decay=c * mu - lam,
    )
