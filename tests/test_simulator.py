import dataclasses
import tracemalloc
from bisect import insort
from collections import deque

import numpy as np
import pytest

from vqt import simulator
from vqt.model import inspect_params, validate_params
from vqt.reference import erlang_c
from vqt.simulator import (
    _BATCHES,
    Estimate,
    SimConfig,
    SimEstimate,
    _batch_estimate,
    _indicator_estimate,
    _uniforms,
    pool_estimates,
    simulate,
    simulate_replicated,
    splitmix64,
)
from vqt.solver import eval_cdf, mean_wait, solve


def z_score(est: Estimate, target: float) -> float:
    return (est.value - target) / (est.half_width / 1.96)


class TestSplitmix:
    def test_known_stream_is_deterministic(self):
        a = splitmix64(12345, 4)
        b = splitmix64(12345, 4)
        assert np.array_equal(a, b)

    def test_counter_property(self):
        # the stream is a pure function of the counter: offset slicing works
        full = splitmix64(9, 10)
        tail = splitmix64(9, 6, start=4)
        assert np.array_equal(full[4:], tail)

    def test_zero_seed_nontrivial(self):
        out = splitmix64(0, 3)
        assert len(set(int(v) for v in out)) == 3


class TestSimConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SimConfig(num_arrivals=100, grid=(2.0, 1.0))

    @pytest.mark.parametrize("grid", [(0.5, float("nan"), 0.2), (float("inf"),)])
    def test_rejects_non_finite_grid(self, grid):
        # a NaN compares false both ways, so the sorted check alone lets it by
        with pytest.raises(ValueError, match="finite"):
            SimConfig(num_arrivals=100, grid=grid)

    # the ids are the ones these cases had while three warm-up cases led the list
    @pytest.mark.parametrize("field, value", [
        ("grid", ("1",)),
        ("grid", (0.5, True)),
        ("grid", None),
    ], ids=["grid-value3", "grid-value4", "grid-None"])
    def test_rejects_non_real_fields(self, field, value):
        with pytest.raises(ValueError, match="must be a real number|must be a sequence"):
            SimConfig(**{"num_arrivals": 100, field: value})

    def test_real_fields_stored_as_floats(self, two_server_params):
        # a list grid used to be stored as a list, and the frozen config
        # then failed to hash
        cfg = SimConfig(num_arrivals=1000, seed=3, grid=[np.float64(0.1), 1])
        assert cfg.grid == (0.1, 1.0) and type(cfg.grid[1]) is float
        assert hash(cfg) == hash(SimConfig(num_arrivals=1000, seed=3, grid=(0.1, 1.0)))
        assert simulate_replicated(two_server_params, cfg) == simulate_replicated(
            two_server_params, SimConfig(num_arrivals=1000, seed=3, grid=(0.1, 1.0)))

    @pytest.mark.parametrize("field, value", [
        ("num_arrivals", 1000.0),       # used to run the whole loop, then raise TypeError
        ("num_arrivals", True),         # used to simulate one arrival
        ("num_arrivals", np.float64(1000)),
        ("replications", 2.0),
        ("replications", True),
    ])
    def test_rejects_non_integral_sizes(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(**{"num_arrivals": 100, field: value})

    @pytest.mark.parametrize("field", ["num_arrivals", "replications"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive_sizes(self, field, value):
        with pytest.raises(ValueError, match="must be positive"):
            SimConfig(**{"num_arrivals": 100, field: value})

    def test_accepts_numpy_integers(self, two_server_params):
        cfg = SimConfig(num_arrivals=np.int64(1000), seed=3, replications=np.int32(2))
        assert simulate_replicated(two_server_params, cfg) == simulate_replicated(
            two_server_params, SimConfig(num_arrivals=1000, seed=3, replications=2))

    @pytest.mark.parametrize("seed", [1.5, "3", None, True, np.float64(3)])
    def test_rejects_non_integral_seed(self, seed):
        # 1.5, "3" and None used to raise TypeError in splitmix64, and True
        # to simulate as seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(num_arrivals=100, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3), np.int8(3)])
    def test_numpy_integer_seed_is_a_python_int(self, two_server_params, seed):
        # np.int64(3) used to overflow in splitmix64's 64-bit mask
        cfg = SimConfig(num_arrivals=1000, seed=seed, replications=2)
        assert type(cfg.seed) is int and cfg.seed == 3
        plain = SimConfig(num_arrivals=1000, seed=3, replications=2)
        assert simulate_replicated(two_server_params, cfg) == simulate_replicated(
            two_server_params, plain)
        one = dataclasses.replace(cfg, replications=1)
        assert simulate(two_server_params, one) == simulate(
            two_server_params, dataclasses.replace(plain, replications=1))

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 5])
    def test_integer_seeds_keep_their_stream(self, two_server_params, seed):
        cfg = SimConfig(num_arrivals=500, seed=seed)
        assert type(cfg.seed) is int and cfg.seed == seed
        assert simulate(two_server_params, cfg) == reference_simulate(two_server_params, cfg)


class TestSimulate:
    def test_rejects_replications(self, two_server_params):
        # one run would silently stand in for the replications asked for
        cfg = SimConfig(num_arrivals=10_000, replications=4)
        with pytest.raises(ValueError, match="simulate_replicated"):
            simulate(two_server_params, cfg)

    def test_deterministic(self, two_server_params):
        cfg = SimConfig(num_arrivals=50_000, seed=7, grid=(0.2, 1.0))
        assert simulate(two_server_params, cfg) == simulate(two_server_params, cfg)

    def test_erlang_oracle_equal_rates(self):
        params = inspect_params(3, 2.0, 0.8, 0.8, 1.0)
        ref = erlang_c(params)
        est = simulate(params, SimConfig(num_arrivals=2_000_000, seed=11))
        assert abs(z_score(est.p_wait_zero, ref.p_wait_zero)) < 3.0
        assert abs(z_score(est.mean_wait, ref.mean())) < 3.0

    def test_worked_example_p_wait_zero(self, two_server_params, two_server_solution):
        est = simulate(two_server_params,
                       SimConfig(num_arrivals=2_000_000, seed=13))
        assert abs(z_score(est.p_wait_zero, two_server_solution.p_wait_zero)) < 3.0

    def test_cdf_against_solver(self, two_server_params, two_server_solution):
        grid = (0.2, 0.45, 1.0, 3.0)
        est = simulate(two_server_params,
                       SimConfig(num_arrivals=1_000_000, seed=17, grid=grid))
        for x, e in zip(grid, est.cdf_points):
            assert abs(z_score(e, eval_cdf(two_server_solution, x)[1])) < 4.0

    def test_class2_fraction_matches_threshold_mass(self, two_server_params,
                                                    two_server_solution):
        est = simulate(two_server_params, SimConfig(num_arrivals=1_000_000, seed=19))
        target = 1.0 - eval_cdf(two_server_solution, two_server_params.k)[1]
        se = np.sqrt(target * (1 - target) / est.num_used)
        assert abs(est.class2_fraction - target) < 5 * se * 3  # dependence inflation

    def test_littles_law_internal(self, two_server_params):
        est = simulate(two_server_params, SimConfig(num_arrivals=1_000_000, seed=23))
        lw = est.arrival_rate_measured * est.mean_wait.value
        sigma = est.arrival_rate_measured * est.mean_wait.half_width / 1.96 \
            + est.queue_len_seen.half_width / 1.96
        assert abs(est.queue_len_seen.value - lw) < 3 * sigma

    def test_unstable_flagged(self):
        params = inspect_params(1, 2.0, 1.0, 1.5, 1.0)
        est = simulate(params, SimConfig(num_arrivals=20_000, seed=3))
        assert any("unstable" in w for w in est.warnings)

    def test_halfwidths_positive(self, two_server_params):
        est = simulate(two_server_params, SimConfig(num_arrivals=20_000, seed=3,
                                                    grid=(0.5,)))
        assert est.p_wait_zero.half_width > 0
        assert est.mean_wait.half_width > 0
        assert est.cdf_points[0].half_width > 0


class TestReplication:
    def test_pooling_is_deterministic_combination(self, two_server_params):
        cfg = SimConfig(num_arrivals=40_000, seed=101, grid=(0.5,), replications=4)
        pooled = simulate_replicated(two_server_params, cfg)
        seeds = [int(s) for s in splitmix64(101, 4)]
        runs = [simulate(two_server_params,
                         SimConfig(num_arrivals=40_000, seed=s, grid=(0.5,)))
                for s in seeds]
        again = pool_estimates(runs)
        assert pooled == again
        assert pooled.mean_wait.value == pytest.approx(
            np.mean([r.mean_wait.value for r in runs]), abs=0)

    def test_halfwidth_shrinks_with_replications(self, two_server_params):
        # a single half-width estimate from 32 batches carries ~13% noise,
        # so compare the 1/sqrt(R) scaling on an average over base seeds
        ratios = []
        for seed in (5, 6, 7):
            one = simulate_replicated(two_server_params, SimConfig(
                num_arrivals=120_000, seed=seed, replications=1))
            four = simulate_replicated(two_server_params, SimConfig(
                num_arrivals=120_000, seed=seed, replications=4))
            ratios.append(one.mean_wait.half_width / four.mean_wait.half_width)
        assert 1.6 < np.mean(ratios) < 2.4

    def test_cdf_against_solver_three_servers(self):
        params = validate_params(3, 2.0, 0.8, 0.7, 5.0)
        sol = solve(params)
        grid = (1.0, 3.0, 5.0, 7.0, 10.0)
        est = simulate_replicated(params, SimConfig(
            num_arrivals=250_000, seed=404, grid=grid, replications=4))
        for x, e in zip(grid, est.cdf_points):
            assert abs(z_score(e, eval_cdf(sol, x)[1])) < 4.0
        assert abs(z_score(est.mean_wait, mean_wait(sol))) < 4.0


def reference_simulate(params, config, warmup_fraction=simulator._WARMUP):
    """The simulator as first written, in one pass over all arrivals: a
    sorted list of server free times (pop + insort), a deque of pending start
    epochs for the queue length, and one float bincount per indicator.
    ``simulate`` with ``simulator._WARMUP = warmup_fraction`` must match it
    bit for bit.
    """
    n = config.num_arrivals
    lam, k, c = params.lam, params.k, params.c
    warnings = []
    if not params.stable:
        warnings.append("unstable: statistics are meaningless")

    warmup = int(warmup_fraction * n)
    used = n - warmup
    batch_size = max(used // _BATCHES, 1)
    grid = np.asarray(config.grid, dtype=float)

    sum_w = np.zeros(_BATCHES)
    sum_zero = np.zeros(_BATCHES)
    sum_q = np.zeros(_BATCHES)
    sum_le = np.zeros((len(grid), _BATCHES))
    counts = np.zeros(_BATCHES)

    free = [0.0] * c
    pending = deque()
    inv_mu1, inv_mu2 = 1.0 / params.mu1, 1.0 / params.mu2
    arrivals = np.cumsum(-np.log1p(-_uniforms(config.seed, n, 0)) / lam)
    draws = -np.log1p(-_uniforms(config.seed, n, n))
    arrivals_l = arrivals.tolist()
    draws_l = draws.tolist()
    waits = [0.0] * n
    qlens = [0] * n
    for i in range(n):
        ti = arrivals_l[i]
        while pending and pending[0] <= ti:
            pending.popleft()
        qlens[i] = len(pending)
        earliest = free[0]
        w = earliest - ti
        if w > 0.0:
            waits[i] = w
            start = earliest
            pending.append(start)
        else:
            w = 0.0
            start = ti
        dur = draws_l[i] * (inv_mu1 if w <= k else inv_mu2)
        free[0] = start + dur
        if c > 1 and free[0] > free[1]:
            v = free.pop(0)
            insort(free, v)

    live = np.arange(n) >= warmup
    w_live = np.asarray(waits)[live]
    t_live = arrivals[live]
    t_first = float(t_live[0])
    t_last = float(t_live[-1])
    b = np.minimum((np.arange(n)[live] - warmup) // batch_size, _BATCHES - 1)
    counts += np.bincount(b, minlength=_BATCHES)
    sum_w += np.bincount(b, weights=w_live, minlength=_BATCHES)
    sum_zero += np.bincount(b, weights=(w_live == 0.0), minlength=_BATCHES)
    sum_q += np.bincount(b, weights=np.asarray(qlens, float)[live], minlength=_BATCHES)
    for g, x in enumerate(grid):
        sum_le[g] += np.bincount(b, weights=(w_live <= x), minlength=_BATCHES)
    n_class2 = int((w_live > k).sum())

    horizon = max(t_last - t_first, 1e-300)
    return SimEstimate(
        p_wait_zero=_indicator_estimate(sum_zero, counts),
        cdf_points=tuple(_indicator_estimate(sum_le[g], counts) for g in range(len(grid))),
        mean_wait=_batch_estimate(sum_w, counts),
        class2_fraction=n_class2 / used,
        num_used=used,
        queue_len_seen=_batch_estimate(sum_q, counts),
        arrival_rate_measured=used / horizon,
        warnings=tuple(warnings),
    )


class TestBitIdenticalToReference:
    """The heap loop and the vectorized statistics against the sorted-list
    reference: every field, every bit (``==`` on the frozen dataclass)."""

    GRID = (0.0, 0.1, 0.5, 1.0, 2.5, 6.0)

    @pytest.mark.parametrize("c, rho, k, n", [
        (1, 0.7, 0.5, 60_000),
        (2, 0.9, 0.45, 60_000),
        (8, 0.9, 2.0, 60_000),
        (64, 0.97, 0.05, 40_000),
    ])
    def test_server_counts(self, c, rho, k, n):
        params = inspect_params(c, rho * c * 0.9, 0.8, 0.9, k)
        cfg = SimConfig(num_arrivals=n, seed=c, grid=self.GRID)
        assert simulate(params, cfg) == reference_simulate(params, cfg)

    def test_light_load(self):
        # about 6 % of arrivals wait: long runs of arrivals with no waiter,
        # which every case above, at load 0.7 or more, lacks
        params = inspect_params(16, 8.0, 0.8, 1.0, 0.5)
        cfg = SimConfig(num_arrivals=60_000, seed=16, grid=self.GRID)
        est = simulate(params, cfg)
        assert est.p_wait_zero.value > 0.9
        assert est == reference_simulate(params, cfg)

    def test_unstable(self):
        params = inspect_params(3, 3.5, 0.9, 1.1, 0.7)
        cfg = SimConfig(num_arrivals=30_000, seed=5, grid=self.GRID)
        est = simulate(params, cfg)
        assert est.warnings and est == reference_simulate(params, cfg)

    @pytest.mark.parametrize("n", [1, 7, 31, 33, 5_000])
    def test_no_warmup(self, monkeypatch, n):
        monkeypatch.setattr(simulator, "_WARMUP", 0.0)
        params = inspect_params(2, 1.6, 0.8, 1.0, 0.5)
        cfg = SimConfig(num_arrivals=n, seed=n, grid=self.GRID)
        assert simulate(params, cfg) == reference_simulate(params, cfg, 0.0)

    def test_empty_grid(self, monkeypatch):
        monkeypatch.setattr(simulator, "_WARMUP", 0.3)
        params = inspect_params(4, 3.0, 0.7, 1.0, 1.5)
        cfg = SimConfig(num_arrivals=20_000, seed=77)
        assert simulate(params, cfg) == reference_simulate(params, cfg, 0.3)

    @pytest.mark.parametrize("warmup", [0.1, 0.9])
    def test_queue_carried_across_chunks(self, monkeypatch, warmup):
        # rho = 0.95 keeps customers queued at the block boundaries; with
        # warmup 0.9 the first counted arrival falls in a later block
        n = 600_000
        assert n > simulator._CHUNK
        monkeypatch.setattr(simulator, "_WARMUP", warmup)
        params = inspect_params(3, 2.85, 0.9, 1.0, 1.0)
        cfg = SimConfig(num_arrivals=n, seed=2024, grid=self.GRID)
        est = simulate(params, cfg)
        assert est.queue_len_seen.value > 1.0
        assert est == reference_simulate(params, cfg, warmup)

    def test_replicated_pools_reference_runs(self):
        params = inspect_params(2, 1.4, 0.8, 1.0, 0.5)
        cfg = SimConfig(num_arrivals=20_000, seed=404, grid=self.GRID, replications=3)
        runs = [reference_simulate(params, SimConfig(num_arrivals=20_000, seed=int(s),
                                                     grid=self.GRID))
                for s in splitmix64(404, 3)]
        assert simulate_replicated(params, cfg) == pool_estimates(runs)


class TestBlockInvariance:
    """No result depends on the block size: every ``_CHUNK`` gives the
    one-pass reference's estimate, every bit."""

    CHUNKS = (1, 7, 4096, simulator._CHUNK, 1 << 20)

    @pytest.mark.parametrize("params, cfg, warmup", [
        # warmup 1110 ends inside a block for every block size but 1
        (inspect_params(2, 1.6, 0.8, 1.0, 0.5),
         SimConfig(num_arrivals=3_000, seed=41, grid=(0.1, 0.5, 2.0)), 0.37),
        # batches of 140: live arrival 3596 (block boundary 4096) is inside batch 25
        (inspect_params(4, 3.0, 0.7, 1.0, 1.5),
         SimConfig(num_arrivals=5_000, seed=42, grid=(0.25, 1.0, 4.0)), 0.1),
        # rho = 0.95: arrivals see 17 waiting on average, so queues cross the
        # block boundaries; the grid holds 0.0
        (inspect_params(3, 2.85, 0.9, 1.0, 1.0),
         SimConfig(num_arrivals=4_000, seed=43, grid=(0.0, 1.0, 6.0)), 0.2),
        (inspect_params(1, 0.8, 0.9, 1.0, 0.3),
         SimConfig(num_arrivals=2_000, seed=44), 0.1),
    ], ids=["warmup-mid-block", "batch-straddles-block", "queue-carried", "empty-grid"])
    def test_same_estimate_for_every_block_size(self, monkeypatch, params, cfg, warmup):
        monkeypatch.setattr(simulator, "_WARMUP", warmup)
        expected = reference_simulate(params, cfg, warmup)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
            assert simulate(params, cfg) == expected, chunk


@pytest.mark.parametrize("chunk", [4096, simulator._CHUNK])
def test_working_set_bounded_by_block_size(monkeypatch, chunk):
    # four times the arrivals may not raise the traced peak by a quarter:
    # what simulate holds is sized by the block, not by num_arrivals
    monkeypatch.setattr(simulator, "_CHUNK", chunk)
    params = inspect_params(2, 1.4, 0.8, 1.0, 0.5)
    simulate(params, SimConfig(num_arrivals=100))   # one-off set-up is no working set

    def traced_peak(n):
        tracemalloc.start()
        try:
            simulate(params, SimConfig(num_arrivals=n, seed=3, grid=(0.25, 0.5, 1.0)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(160_000) < 1.25 * traced_peak(40_000)
