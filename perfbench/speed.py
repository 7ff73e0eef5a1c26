"""The machine's speed at a moment, read from a fixed calibration kernel.

The machines this benchmark runs on are shared: the same ``vqt.solve`` call
takes 1.0 ms in one minute and 1.6 ms a few minutes later, in wall time and
in thread CPU time alike, and every timing of a run moves with it.  So each
timed call is bracketed by runs of a kernel that does not touch vqt, and its
time is scaled by how long the kernel took beside it:

    normalised = wall * REFERENCE_MS / kernel_ms

That is the call's time on a machine where the kernel takes REFERENCE_MS,
the kernel's median time on the 2-vCPU machine the benchmark was written
on.  vqt code that gets faster still shows as a shorter time; a slower or
busier machine does not.

The kernel mixes the kinds of work vqt does: an interpreted event loop with
a heap, float arithmetic, small dense solves, vectorised integer hashing and
float formatting.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

REFERENCE_MS = 0.48
REPEATS = 3                # kernel runs per reading; the fastest counts

_rng = np.random.default_rng(12345)
_A = _rng.random((10, 10)) + 10.0 * np.eye(10)
_B = _rng.random(10)
_U = np.arange(1024, dtype=np.uint64)
_M = np.uint64(0xBF58476D1CE4E5B9)


def kernel() -> float:
    heap = [(0.0, 0)]
    total = 0.0
    for i in range(1, 300):
        t, j = heapq.heappop(heap)
        total += t * 0.5 + j
        heapq.heappush(heap, (t + (i % 7) * 0.25, i))
        heapq.heappush(heap, (t + (i % 5) * 0.5, -i))
    for _ in range(25):
        x = np.linalg.solve(_A, _B)
        total += float(np.exp(-x).sum())
    z = _U * _M
    z ^= z >> np.uint64(31)
    total += float(z[:8].sum() % 1000)
    total += len(",".join(f"{v:.10g}" for v in _B.tolist() * 8))
    return total


def reading() -> float:
    """Milliseconds the kernel takes now: the fastest of REPEATS runs, so a
    preemption during one run does not count as a slow machine."""
    best = float("inf")
    gc.disable()                 # a collection would time vqt's heap, not the machine
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns a wall time bracketed by two readings into a time at
    reference speed."""
    return REFERENCE_MS / (0.5 * (before_ms + after_ms))
