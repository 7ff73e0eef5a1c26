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
_ONE = np.uint64(1)

_BATCHES = 32
_WARMUP = 0.1                   # share of each run's arrivals discarded before counting
_Z95 = 1.96
_CHUNK = 1 << 15                # arrivals per block: a block's arrays stay in cache


def splitmix64(seed: int, n: int, start: int = 0) -> np.ndarray:
    """n raw 64-bit outputs of the splitmix64 stream seeded at ``seed``.

    Output i is mix(seed + (start + i + 1) * gamma): a counter-based form of
    the usual state-advancing generator.
    """
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _SM_GAMMA
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    shifted = np.empty_like(z)      # the mix works in place: one scratch array
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= _SM_M1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _SM_M2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _uniforms(seed: int, n: int, start: int, out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of the stream, written to
    ``out`` when given."""
    z = splitmix64(seed, n, start)
    z >>= np.uint64(11)
    # below 2^53 the int64 view holds the same value and converts faster
    return np.multiply(z.view(np.int64), 2.0 ** -53, out=out)


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
    seed: int = 0
    grid: tuple[float, ...] = ()
    replications: int = 1

    def __post_init__(self):
        _check_count("num_arrivals", self.num_arrivals)
        # splitmix64 masks the seed as a Python int; a numpy int overflows there
        object.__setattr__(self, "seed", _integer("seed", self.seed))
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
    # 1e-15 |value| scales with the time unit; a 0 keeps 1e-15, so no z divides by 0
    return Estimate(value, max(_Z95 * se, 1e-15 * abs(value)) or 1e-15)


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
    """Single event-driven FCFS run; statistics by batch means (32 batches)
    over the arrivals after the first ``_WARMUP`` share of them.

    Per arrival the loop reads the earliest server free time, starts the
    customer at max(t_i, earliest), classifies the delay against k for the
    service rate, and replaces that free time in the heap with the
    departure.  It records only the start epoch.  The interarrival and
    service uniforms live in two disjoint counter ranges so the draw layout
    is set once and for all.

    Arrivals stream through in blocks of ``_CHUNK``, and no result depends
    on the block size.  Each stream's uniforms, its -log1p(-u) transform
    and, for the arrivals, the running sum of the epochs (carried across
    blocks) are formed in place in one buffer per stream.  After the loop,
    per block, only the customers who waited are looked at: the loop's own
    test start > t_i finds them, and a wait is start - t_i, the same
    subtraction the loop classified.  A customer who does not wait adds a
    zero wait and sees no queue, so it is only counted.  The
    queue length seen at arrival i counts the earlier customers who waited
    and have not started by t_i.  FCFS start epochs never decrease (each is
    the minimum free time, and the minimum never falls), so those who
    started by t_i form a prefix of the waiters' starts, and one merge of
    the sorted starts with the sorted arrivals counts them exactly.  The
    merge sorts the epochs' bits, which order as the epochs do for
    nonnegative floats, shifted left with the low bit set on the arrivals,
    so an arrival sorts after a start equal to it.  Starts still after a
    block's last arrival carry into the next block; the block's other
    arrays are freed before the next block's draws are made.

    Each batch's wait sum is one sequential sum over its waits in arrival
    order (a zero wait adds nothing): the partial sum carried in from
    earlier blocks is added to the block's first wait of the open batch,
    ahead of the ``bincount``.  Queue-length sums are integer counts,
    summed per batch from one running sum, so exact in any order.  So are
    the counts of waits at or below each level (0, k and the grid points):
    one ``searchsorted`` places each wait among the levels, one
    ``bincount`` tallies batch x level codes, the customers who did not
    wait go to the zero column, and a cumulative sum over the levels at the
    end turns the tallies into counts.
    """
    if config.replications != 1:
        raise ValueError("simulate runs one replication: use simulate_replicated")
    n = config.num_arrivals
    lam, k, c = params.lam, params.k, params.c
    warnings = []
    if not params.stable:
        warnings.append("unstable: statistics are meaningless")

    warmup = int(_WARMUP * n)
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
    rows = np.arange(_BATCHES) * width      # where each batch's row starts in the flat tally
    zero = np.searchsorted(levels, 0.0)     # the column of a zero wait
    t_first = t_last = 0.0

    size = min(_CHUNK, n)
    # the block's arrival epochs and service draws; spent after the loop,
    # the buffer takes the merge of starts and arrivals
    block = np.empty(2 * size)
    epochs, services = block[:size], block[size:]
    free = [0.0] * c                # heap of server free times
    queued = np.zeros(0)            # waiters' start epochs after the last arrival
    t = 0.0
    inv_mu1, inv_mu2 = 1.0 / params.mu1, 1.0 / params.mu2
    inv_idle = inv_mu1 if 0.0 <= k else inv_mu2     # rate for a zero delay
    replace = heapq.heapreplace
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        # gaps -log1p(-u) / lam, the first one carrying the last epoch, summed in place
        arrivals = _uniforms(config.seed, m, done, epochs[:m])
        np.negative(arrivals, out=arrivals)
        np.log1p(arrivals, out=arrivals)
        np.divide(arrivals, -lam, out=arrivals)         # (-x) / lam, the same bits
        arrivals[0] += t
        np.cumsum(arrivals, out=arrivals)
        t = float(arrivals[-1])
        draws = _uniforms(config.seed, m, n + done, services[:m])
        np.negative(draws, out=draws)
        np.log1p(draws, out=draws)
        np.negative(draws, out=draws)
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
        waiters = np.flatnonzero(starts > arrivals)     # the loop's test: wait > 0.0
        queued = np.concatenate((queued, starts[waiters]))

        lo = max(warmup - done, 0)
        if lo < m:
            if done <= warmup:
                t_first = float(arrivals[lo])
            t_last = t
            bounds = np.clip(edges + (warmup - done), 0, m)
            cut = np.searchsorted(waiters, bounds)  # batch j's waiters: waiters[cut[j]:cut[j + 1]]
            first, per_batch = cut[0], np.diff(cut)
            tally[:, zero] += np.diff(bounds) - per_batch    # the live non-waiters
            arrived = arrivals[waiters[first:]]
            # the same subtraction the loop classified
            waits = queued[len(queued) - len(waiters) + first:] - arrived
            row = np.repeat(rows, per_batch)        # each live waiter's tally row
            codes = np.searchsorted(levels, waits)
            codes += row
            tally += np.bincount(codes, minlength=tally.size).reshape(tally.shape)
            if len(waits):
                # batch j is open at the block's first live waiter; its partial
                # sum goes in front, so each batch's wait sum is one sequential
                # sum (a zero wait adds nothing to it)
                j = row[0] // width
                waits[0] += sum_w[j]
                sum_w[j:] = np.bincount(row, weights=waits, minlength=tally.size)[rows[j:]]

            # the queue seen: one merge of the sorted starts and arrivals (see above)
            total = len(queued) + len(arrived)
            keys = block.view(np.uint64) if total <= len(block) else np.empty(total, np.uint64)
            merged = keys[:total]
            np.left_shift(queued.view(np.uint64), _ONE, out=merged[:len(queued)])
            np.left_shift(arrived.view(np.uint64), _ONE, out=merged[len(queued):])
            merged[len(queued):] |= _ONE
            merged.sort(kind="stable")      # two sorted runs: one merge pass
            merged &= _ONE
            place = np.flatnonzero(merged.astype(bool))     # arrival r's place
            # before arrival r sit r arrivals and the starts by t_r, so waiter r
            # sees len(queued) - len(waiters) + first + 2r - place[r] waiters;
            # over a batch's waiters r in [a, b) the 2r sum to (a + b - 1)(b - a)
            running = keys[:len(place) + 1].view(np.int64)  # the merge is done
            running[0] = 0
            np.cumsum(place, out=running[1:])
            a, b = cut[:-1] - first, cut[1:] - first
            sum_q += ((len(queued) - len(waiters) + first + a + b - 1) * per_batch
                      - (running[b] - running[a]))
            del arrived, waits, row, codes, place
        queued = queued[np.searchsorted(queued, t, side="right"):]
        # the block's arrays go before the next block's draws are made, so
        # the working set is one block's
        del starts, waiters
        done += m

    # at_or_below[j, g]: batch j's waits <= levels[g]; last column: all of them
    at_or_below = tally.cumsum(axis=1)
    counts = at_or_below[:, -1].astype(float)
    at_k = np.searchsorted(levels, k)
    horizon = max(t_last - t_first, 1e-300)
    return SimEstimate(
        p_wait_zero=_indicator_estimate(at_or_below[:, zero].astype(float), counts),
        cdf_points=tuple(_indicator_estimate(at_or_below[:, g].astype(float), counts)
                         for g in np.searchsorted(levels, config.grid)),
        mean_wait=_batch_estimate(sum_w, counts),
        class2_fraction=(used - int(at_or_below[:, at_k].sum())) / used,
        num_used=used,
        queue_len_seen=_batch_estimate(sum_q, counts),
        arrival_rate_measured=used / horizon,
        warnings=tuple(warnings),
    )


def _pool(values: list[Estimate]) -> Estimate:
    r = len(values)
    value = sum(e.value for e in values) / r
    hw = math.sqrt(sum(e.half_width ** 2 for e in values)) / r
    return Estimate(value, max(hw, 1e-15 * abs(value)) or 1e-15)  # as _batch_estimate


def pool_estimates(runs: list[SimEstimate]) -> SimEstimate:
    """Deterministic pooling: plain averages, half-widths combined in quadrature."""
    r = len(runs)
    return SimEstimate(
        p_wait_zero=_pool([e.p_wait_zero for e in runs]),
        cdf_points=tuple(
            _pool([e.cdf_points[g] for e in runs]) for g in range(len(runs[0].cdf_points))
        ),
        mean_wait=_pool([e.mean_wait for e in runs]),
        class2_fraction=sum(e.class2_fraction for e in runs) / r,
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
    return pool_estimates(runs)
