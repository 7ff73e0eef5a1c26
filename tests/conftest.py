import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vqt.model import QueueParams, per_row, validate_params
from vqt.solver import solve

# Worked two-server case used throughout: k=0.45, lambda=2, mu1=0.75, mu2=1.12.
TWO_SERVER = dict(c=2, lam=2.0, mu1=0.75, mu2=1.12, k=0.45)


def run_python(*args, path=()):
    """``python <args>`` in a fresh interpreter that imports this checkout's
    vqt, with the directories ``path`` on its import path too."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), *map(str, path), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.fixture(scope="session")
def two_server_params():
    return validate_params(**TWO_SERVER)


@pytest.fixture(scope="session")
def two_server_solution(two_server_params):
    return solve(two_server_params)


@pytest.fixture(scope="session")
def three_server_solution():
    return solve(validate_params(3, 2.0, 0.8, 0.7, 5.0))


def solvent_expm(roots: np.ndarray, vectors: np.ndarray, inverse: np.ndarray,
                 x: float) -> np.ndarray:
    """e^{U x} for the solvent U = inverse @ diag(roots) @ vectors."""
    return inverse @ (np.exp(roots * per_row(x, 1))[..., None] * vectors)


def _root_families(c, lam, mu1, mu2):
    """Closed-form spectra of both families of scalar quadratics."""
    out = []
    for sums, prods in (
        ([lam - (i + 1) * mu1 - (c - 1 - i) * mu2 for i in range(c)],
         [(c - 1 - i) * lam * mu2 for i in range(c)]),
        ([lam - i * mu1 - (c - i) * mu2 for i in range(c)],
         [i * lam * mu1 for i in range(c)]),
    ):
        roots = []
        for s, p in zip(sums, prods):
            d = np.sqrt(s * s + 4 * p)
            roots += [0.5 * (s - d), 0.5 * (s + d)]
        out.append(np.array(roots))
    return out


def random_stable_params(rng: np.random.Generator, c_max: int = 8):
    """One stable, comfortably non-degenerate draw (rejection sampling).

    Rejects draws whose eigenvalues nearly collide across quadratics (those
    blow up eigenvector entries) and ones whose growth modes overflow over
    the threshold interval.
    """
    while True:
        c = int(rng.integers(1, c_max + 1))
        mu1 = float(rng.uniform(0.2, 3.0))
        mu2 = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.05, 0.92) * c * mu2)
        k = float(rng.uniform(0.2, 4.0))
        scale = max(lam, c * mu1, c * mu2)
        margins = (
            abs(lam - c * mu1), abs(lam - c * (mu1 - mu2)),
            abs(lam - c * (mu2 - mu1)), abs(mu1 - mu2),
        )
        if min(margins) < 1e-3 * scale:
            continue
        gap_ok = True
        for roots in _root_families(c, lam, mu1, mu2):
            gaps = np.abs(roots[:, None] - roots[None, :])
            gaps += np.eye(len(roots)) * scale
            if gaps.min() < 1e-3 * scale:
                gap_ok = False
            # growth of the increasing modes over [0, k] multiplies roundoff
            # by exp(theta_max k); past e^16 the density floor drifts above
            # the 1e-10 property bound
            if roots.max() * k > 16.0:
                gap_ok = False
        if not gap_ok:
            continue
        try:
            return validate_params(c, lam, mu1, mu2, k)
        except Exception:
            continue


def class_swap_matrix(params: QueueParams) -> np.ndarray:
    """The sparse M with M (B1 - mu1 I - Delta_{c-1}) = B2 - mu2 I - Delta_{c-1}.

    Entries follow the Kronecker form that actually satisfies the identity:
    M(0, c-1) = c mu2, M(1, c-1) = mu1, and M(i, i-1) = -(i/(c-i)) (mu1/mu2)
    for 1 <= i <= c-1.
    """
    c, mu1, mu2 = params.c, params.mu1, params.mu2
    m = np.zeros((c, c))
    m[0, c - 1] = c * mu2
    if c >= 2:
        m[1, c - 1] += mu1
    for i in range(1, c):
        m[i, i - 1] += -(i / (c - i)) * (mu1 / mu2)
    return m
