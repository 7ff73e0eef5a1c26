"""Discrete-event Monte Carlo oracle for the threshold queue.

The simulator models the physical FCFS M/M/c system, not the analytic jump
process: under FCFS the delay realized by an arriving customer equals the
virtual queueing time at its arrival epoch, and by PASTA the per-customer
delays sample the stationary law directly.  Maximal independence from the
analytic code is the point.

Randomness is counter-based (a splitmix64 bijection of the draw index), so
results are a pure function of (params, config), no result depends on the
block size, and replication seeds come from the same documented constants.
Exponential variates use the inverse transform.

The event loop is the FCFS many-server recursion (Kiefer and Wolfowitz,
Trans. AMS 1955): each arrival needs only the earliest server free time, kept
in a binary heap, so one step costs O(log c).  Everything else is computed
from the recorded start epochs in numpy after the loop.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import numbers
import operator
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import QueueParams

__all__ = [
    "SimConfig",
    "SimEstimate",
    "Estimate",
    "simulate",
    "simulate_replicated",
    "splitmix64",
    "pool_estimates",
]

# splitmix64 constants (Steele, Lea, Flood); the golden-ratio increment makes
# the generator a pure function of the draw counter.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)

_BATCHES = 32
_Z95 = 1.96
_CHUNK = 1 << 15                # arrivals per block: a block's arrays stay in cache


def splitmix64(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n raw 64-bit outputs of the splitmix64 stream seeded at ``seed``.

    Output i is mix(seed + (start + i + 1) * gamma): a counter-based form of
    the usual state-advancing generator.
    """
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, n: int, start: int) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of the stream."""
    return (splitmix64(seed, n, start) >> np.uint64(11)) * 2.0 ** -53


class Estimate(NamedTuple):
    value: float
    half_width: float


def _integer(name: str, value) -> int:
    """value as a Python int: Python or numpy ints, not floats and not bools."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """value as a float: a real number (Python or numpy), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_count(name: str, value) -> None:
    """A positive integer (see ``_integer``)."""
    if _integer(name, value) < 1:
        raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SimConfig:
    num_arrivals: int
    warmup_fraction: float = 0.1
    seed: int = 0
    grid: tuple[float, ...] = ()
    replications: int = 1

    def __post_init__(self):
        _check_count("num_arrivals", self.num_arrivals)
        # splitmix64 masks the seed as a Python int; a numpy int overflows there
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        object.__setattr__(self, "warmup_fraction", _real("warmup_fraction", self.warmup_fraction))
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        try:
            points = tuple(self.grid)
        except TypeError:
            raise ValueError(f"grid must be a sequence of numbers, got {self.grid!r}") from None
        # a tuple of floats, so that the frozen config hashes
        object.__setattr__(self, "grid", tuple(_real("grid points", x) for x in points))
        if not all(map(math.isfinite, self.grid)):
            raise ValueError("grid points must be finite")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be sorted ascending")
        _check_count("replications", self.replications)


@dataclass(frozen=True)
class SimEstimate:
    p_wait_zero: Estimate
    cdf_points: tuple[Estimate, ...]
    mean_wait: Estimate
    class2_fraction: float
    seed_used: int
    num_used: int
    queue_len_seen: Estimate        # waiting count sampled at arrival epochs
    arrival_rate_measured: float
    warnings: tuple[str, ...] = ()


def _batch_estimate(batch_sums: np.ndarray, batch_counts: np.ndarray) -> Estimate:
    mask = batch_counts > 0
    means = batch_sums[mask] / batch_counts[mask]
    value = float(batch_sums.sum() / batch_counts.sum())
    if len(means) < 2:
        return Estimate(value, max(abs(value), 1.0))
    se = float(means.std(ddof=1) / math.sqrt(len(means)))
    return Estimate(value, max(_Z95 * se, 1e-15))


def _indicator_estimate(batch_sums: np.ndarray, batch_counts: np.ndarray) -> Estimate:
    """Batch-means estimate of a probability.

    Its standard error is floored at the binomial resolution sqrt(q(1-q)/N)
    of the N customers counted, with q kept one count away from 0 and 1: when
    every batch sees the same 0 or 1 the batch means carry no spread, yet the
    estimate is still only resolved to about 1/N.
    """
    est = _batch_estimate(batch_sums, batch_counts)
    n = float(batch_counts.sum())
    q = min(max(est.value, 1.0 / n), 1.0 - 1.0 / n)
    return Estimate(est.value, max(est.half_width, _Z95 * math.sqrt(q * (1.0 - q) / n)))


def simulate(params: QueueParams, config: SimConfig) -> SimEstimate:
    """Single event-driven FCFS run; statistics by batch means (32 batches).

    Per arrival the loop reads the earliest server free time, starts the
    customer at max(t_i, earliest), classifies the delay against k for the
    service rate, and replaces that free time in the heap with the
    departure.  It records only the start epoch.  The interarrival and
    service uniforms live in two disjoint counter ranges so the draw layout
    is set once and for all.

    Arrivals stream through in blocks of ``_CHUNK``, and no result depends
    on the block size.  The arrival epochs are one running sum carried
    across blocks.  After the loop, per block: the wait is start - t_i, the
    same subtraction the loop classified.  The queue length seen at arrival
    i counts the earlier customers who waited and have not started by t_i.
    FCFS start epochs never decrease (each is the minimum free time, and the
    minimum never falls), so those who started by t_i form a prefix of the
    waiters' starts and one ``searchsorted`` counts them exactly; a customer
    who does not wait finds no queue.  Starts still after a block's last
    arrival carry into the next block.

    Each batch's wait sum is one sequential sum: the partial sum carried in
    from earlier blocks goes in front of the block's ``bincount`` weights.
    Queue-length sums are integer-valued, so exact in any order.  So are the
    counts of waits at or below each level (0, k and the grid points): one
    ``searchsorted`` places each wait among the levels, one ``bincount``
    tallies batch x level codes, and a cumulative sum over the levels at the
    end turns the tallies into counts.
    """
    if config.replications != 1:
        raise ValueError("simulate runs one replication: use simulate_replicated")
    n = config.num_arrivals
    lam, k, c = params.lam, params.k, params.c
    warnings = []
    if not params.stable:
        warnings.append("unstable: statistics are meaningless")

    warmup = int(config.warmup_fraction * n)
    used = n - warmup
    batch_size = max(used // _BATCHES, 1)
    # live-index bounds of the batches; the last takes the remainder
    edges = np.minimum(np.arange(_BATCHES + 1) * batch_size, used)
    edges[-1] = used
    levels = np.sort([*config.grid, 0.0, k])   # a repeated level repeats a column
    width = len(levels) + 1

    sum_w = np.zeros(_BATCHES)
    sum_q = np.zeros(_BATCHES)
    # tally[j, g]: batch j's waits in (levels[g-1], levels[g]]; last column: above all
    tally = np.zeros((_BATCHES, width), dtype=np.int64)
    t_first = t_last = 0.0

    free = [0.0] * c                # heap of server free times
    queued = np.zeros(0)            # waiters' start epochs after the last arrival
    t = 0.0
    inv_mu1, inv_mu2 = 1.0 / params.mu1, 1.0 / params.mu2
    inv_idle = inv_mu1 if 0.0 <= k else inv_mu2     # rate for a zero delay
    replace = heapq.heapreplace
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        gaps = -np.log1p(-_uniforms(config.seed, m, done)) / lam
        gaps[0] += t                # the epochs are one running sum across blocks
        arrivals = np.cumsum(gaps)
        t = float(arrivals[-1])
        draws = -np.log1p(-_uniforms(config.seed, m, n + done))
        starts = array("d")
        put = starts.append
        for ti, d in zip(memoryview(arrivals), memoryview(draws)):
            earliest = free[0]
            if earliest > ti:
                put(earliest)
                replace(free, earliest + d * (inv_mu1 if earliest - ti <= k else inv_mu2))
            else:
                put(ti)
                replace(free, ti + d * inv_idle)
        starts = np.frombuffer(starts)
        waits = starts - arrivals       # +0.0 for a customer who did not wait
        waited = waits > 0.0
        queued = np.concatenate((queued, starts[waited]))
        qlen = np.zeros(m, dtype=np.int64)
        qlen[waited] = (np.arange(len(queued) - np.count_nonzero(waited), len(queued))
                        - np.searchsorted(queued, arrivals[waited], side="right"))

        lo = max(warmup - done, 0)
        if lo < m:
            if done <= warmup:
                t_first = float(arrivals[lo])
            t_last = t
            bounds = np.clip(edges + (warmup - done), 0, m)
            b = np.repeat(np.arange(_BATCHES), np.diff(bounds))
            # batch j is open at the block's first live arrival; its partial
            # sum goes in front, so each batch's wait sum is one sequential sum
            j = b[0]
            sum_w[j:] = np.bincount(np.concatenate(((j,), b)),
                                    weights=np.concatenate((sum_w[j:j + 1], waits[lo:])),
                                    minlength=_BATCHES)[j:]
            sum_q += np.bincount(b, weights=qlen[lo:], minlength=_BATCHES)
            tally += np.bincount(b * width + np.searchsorted(levels, waits[lo:]),
                                 minlength=tally.size).reshape(tally.shape)
        queued = queued[np.searchsorted(queued, t, side="right"):]
        done += m

    # at_or_below[j, g]: batch j's waits <= levels[g]; last column: all of them
    at_or_below = tally.cumsum(axis=1)
    counts = at_or_below[:, -1].astype(float)
    zero, at_k = np.searchsorted(levels, (0.0, k))
    horizon = max(t_last - t_first, 1e-300)
    return SimEstimate(
        p_wait_zero=_indicator_estimate(at_or_below[:, zero].astype(float), counts),
        cdf_points=tuple(_indicator_estimate(at_or_below[:, g].astype(float), counts)
                         for g in np.searchsorted(levels, config.grid)),
        mean_wait=_batch_estimate(sum_w, counts),
        class2_fraction=(used - int(at_or_below[:, at_k].sum())) / used,
        seed_used=config.seed,
        num_used=used,
        queue_len_seen=_batch_estimate(sum_q, counts),
        arrival_rate_measured=used / horizon,
        warnings=tuple(warnings),
    )


def _pool(values: list[Estimate]) -> Estimate:
    r = len(values)
    value = sum(e.value for e in values) / r
    hw = math.sqrt(sum(e.half_width ** 2 for e in values)) / r
    return Estimate(value, max(hw, 1e-15))


def pool_estimates(runs: list[SimEstimate], base_seed: int) -> SimEstimate:
    """Deterministic pooling: plain averages, half-widths combined in quadrature."""
    r = len(runs)
    return SimEstimate(
        p_wait_zero=_pool([e.p_wait_zero for e in runs]),
        cdf_points=tuple(
            _pool([e.cdf_points[g] for e in runs]) for g in range(len(runs[0].cdf_points))
        ),
        mean_wait=_pool([e.mean_wait for e in runs]),
        class2_fraction=sum(e.class2_fraction for e in runs) / r,
        seed_used=base_seed,
        num_used=sum(e.num_used for e in runs),
        queue_len_seen=_pool([e.queue_len_seen for e in runs]),
        arrival_rate_measured=sum(e.arrival_rate_measured for e in runs) / r,
        warnings=tuple(dict.fromkeys(w for e in runs for w in e.warnings)),
    )


def simulate_replicated(params: QueueParams, config: SimConfig) -> SimEstimate:
    """Independent replications with seeds from the splitmix64 stream of the
    base seed; estimates pooled by ``pool_estimates``."""
    seeds = [int(s) for s in splitmix64(config.seed, config.replications)]
    runs = [simulate(params, dataclasses.replace(config, seed=s, replications=1))
            for s in seeds]
    return pool_estimates(runs, config.seed)
