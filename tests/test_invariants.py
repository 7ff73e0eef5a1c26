"""Invariants over the input box, drawn by a seeded hypothesis profile.

The box is the draw set's (ROADMAP aim 3): c <= 16, mu1, mu2 in [0.2, 3],
lambda / (c mu2) in [0.05, 0.97] and k log-uniform in [0.01, 100].  The
seed, the example counts and the box are fixed; a counterexample is a named
input to record, not a reason to narrow them.  Each example either raises a
VqtError or satisfies the invariant.
"""

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vqt.errors import VqtError
from vqt.model import validate_params
from vqt.reference import single_server
from vqt.solver import eval_cdf, mean_wait, solve

PROFILE = settings(max_examples=400, deadline=None, database=None, print_blob=False)
SEED = 20261020

RATE = st.floats(0.2, 3.0)
LOAD = st.floats(0.05, 0.97)


def outcome(c, lam, mu1, mu2, k, xs):
    """(F on xs, pi levels) of a solve, or the class of the VqtError it raises."""
    try:
        sol = solve(validate_params(c, lam, mu1, mu2, k))
    except VqtError as exc:
        return type(exc)
    return eval_cdf(sol, xs)[0].tobytes(), [level.tobytes() for level in sol.pi_levels]


@seed(SEED)
@PROFILE
@given(c=st.integers(1, 16), mu1=RATE, mu2=RATE, load=LOAD, log_k=st.floats(-2.0, 2.0))
def test_power_of_two_rate_units_give_the_same_bits(c, mu1, mu2, load, log_k):
    # rates x 2^m and k x 2^-m is the same queue in time units 2^m shorter;
    # every operation then scales exactly, so F and pi keep their bits
    lam, k = load * c * mu2, 10.0 ** log_k
    xs = np.linspace(0.0, 4.0 * k, 41)
    want = outcome(c, lam, mu1, mu2, k, xs)
    for m in (-7, 3, 60):
        s = 2.0 ** m
        assert outcome(c, lam * s, mu1 * s, mu2 * s, k / s, xs / s) == want, m


def single_server_mean(ref) -> float:
    """E[W] of the c = 1 closed form from its three density terms: below k,
    int_0^k x a0 e^{-r x} dx = a0 k^2 g(r k) with g(y) = (1 - e^{-y} (1 + y)) / y^2
    (its series near y = 0, where the closed form cancels); above it, each
    a e^{-r (x - k)} gives a (k / r + 1 / r^2)."""
    k, y = ref.params.k, ref.rate_below * ref.params.k
    if abs(y) < 0.1:
        g = sum((-y) ** n * (n + 1) / math.factorial(n + 2) for n in range(20))
    else:
        g = -(math.expm1(-y) + y * math.exp(-y)) / (y * y)
    above = sum(a * (k / r + 1.0 / (r * r))
                for a, r in ((ref.coef_slow, ref.rate_slow), (ref.coef_fast, ref.rate_fast)))
    return ref.coef_below * k * k * g + above


@seed(SEED)
@PROFILE
@given(mu1=RATE, mu2=RATE, load=LOAD, log_k=st.floats(-2.0, 4.0))
def test_one_server_matches_its_closed_form(mu1, mu2, load, log_k):
    lam, k = load * mu2, 10.0 ** log_k
    try:
        params = validate_params(1, lam, mu1, mu2, k)
        sol = solve(params)
        mean = mean_wait(sol)
    except VqtError:
        return
    ref = single_server(params)
    xs = np.linspace(0.0, 4.0 * k, 41)
    want = np.array([ref.cdf(x) for x in xs.tolist()])
    assert np.abs(eval_cdf(sol, xs)[1] - want).max() <= 1e-10
    assert abs(mean - single_server_mean(ref)) <= 1e-10 * abs(single_server_mean(ref))
