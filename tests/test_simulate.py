"""Trajectory simulation and throughput estimation."""

import math
import os
from itertools import chain, islice

import pytest
from numpy.random import Generator, Philox, SeedSequence

from envqueue import simulate as simulate_module
from envqueue.bounds import departure_values
from envqueue.catalog import base_stock, perishable_o
from envqueue.cli import EXIT_ERROR, main
from envqueue.ergodicity import certify
from envqueue.forkjoin import WorkerLost
from envqueue.model import validate_model
from envqueue.simulate import SimConfig, ZeroExitRate, _t_quantile, _uniforms, simulate

from conftest import assert_no_children, count_forks, period_two_model, traced_peak


class TestSimulate:
    def test_seed_reproducibility(self, bs_model):
        config = SimConfig(seed=123, horizon=500.0, replications=4)
        a = simulate(bs_model, config)
        b = simulate(bs_model, config)
        assert a.estimate.per_replication == b.estimate.per_replication
        assert a.total_jumps == b.total_jumps

    @pytest.mark.parametrize(
        "model, horizon, replications, per_replication, jumps",
        [
            (base_stock(lam=1, mu=2, nu=1, b=2), 200.0, 3,
             (0.7166666666666667, 0.7222222222222222, 0.5722222222222222), 1207),
            (perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2), 200.0, 3,
             (0.48333333333333334, 0.5666666666666667, 0.4111111111111111), 1348),
            # more than one 8192-draw chunk per replication
            (base_stock(lam=1, mu=2, nu=1, b=2), 5000.0, 2, (0.6722222222222223, 0.6606666666666666), 20003),
            # a two-level prefix and period 2: every branch of the class fold
            (period_two_model(), 3000.0, 2, (0.6937037037037037, 0.7144444444444444), 23779),
        ],
        ids=["base_stock", "perishable_o", "base_stock_long", "period_two_long"],
    )
    def test_trajectories_pinned(self, model, horizon, replications, per_replication, jumps):
        # values of the numpy-per-jump kernel with per-state transition
        # tables: the trajectories for a seed must not move
        result = simulate(model, SimConfig(seed=5, horizon=horizon, replications=replications))
        assert result.estimate.per_replication == per_replication
        assert result.total_jumps == jumps

    def test_many_short_replications_pinned(self, bs_model):
        # ~400 jumps a replication: each reads one window of its first chunk
        result = simulate(bs_model, SimConfig(seed=5, horizon=200.0, replications=200))
        assert result.total_jumps == 79389
        assert result.total_departures == 23882
        assert sum(result.estimate.per_replication) == 132.6777777777778

    @pytest.mark.parametrize("seed, rep", [(0, 0), (5, 1), (123456789, 7), (2**40, 199)])
    def test_uniforms_match_chunk_reference(self, seed, rep):
        # the stream layout: chunk c holds 8192 holding-time uniforms, then 8192 pick uniforms
        rng = Generator(Philox(SeedSequence(entropy=seed, spawn_key=(rep,))))
        expected = []
        for _ in range(3):  # two chunk crossings
            u_time = rng.random(8192)
            u_pick = rng.random(8192)
            expected += zip(u_time.tolist(), u_pick.tolist())
        pairs = chain.from_iterable(zip(u_time.tolist(), u_pick.tolist()) for u_time, u_pick in _uniforms(seed, rep))
        assert list(islice(pairs, len(expected))) == expected

    def test_different_seeds_differ(self, bs_model):
        config_a = SimConfig(seed=1, horizon=500.0, replications=2)
        config_b = SimConfig(seed=2, horizon=500.0, replications=2)
        a = simulate(bs_model, config_a)
        b = simulate(bs_model, config_b)
        assert a.estimate.per_replication != b.estimate.per_replication

    def test_mm1_covers_lambda(self, mm1_model):
        result = simulate(mm1_model, SimConfig(seed=0, horizon=2e4, replications=10))
        assert result.estimate.covers(1.0)

    def test_base_stock_covers_analytic(self, bs_model):
        result = simulate(bs_model, SimConfig(seed=0, horizon=2e4, replications=10))
        assert result.estimate.covers(2 / 3)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimConfig(replications=0)

    @pytest.mark.parametrize("horizon", [0.0, -5.0, math.inf, math.nan])
    def test_invalid_horizon(self, horizon):
        # a nan or infinite horizon would never end a replication
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(horizon=horizon)

    def test_t_quantile_matches_scipy(self):
        stdtrit = pytest.importorskip("scipy.special").stdtrit
        for df in range(1, 2001):
            assert _t_quantile(df, 0.975) == pytest.approx(stdtrit(df, 0.975), rel=1e-12, abs=0), df

    def test_t_quantile_closed_forms(self):
        p = 0.975
        assert _t_quantile(1, p) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-15)
        assert _t_quantile(2, p) == pytest.approx((2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-15)
        # df = 4 solves a cubic: t = 2 sqrt(q - 1), q = cos(arccos(sqrt(alpha)) / 3) / sqrt(alpha)
        alpha = 4 * p * (1 - p)
        q = math.cos(math.acos(math.sqrt(alpha)) / 3) / math.sqrt(alpha)
        assert _t_quantile(4, p) == pytest.approx(2 * math.sqrt(q - 1), rel=1e-13)
        assert _t_quantile(4, p) == pytest.approx(2.7764451051977934, rel=1e-13)

    def test_t_quantile_falls_to_the_normal_quantile(self):
        quantiles = [_t_quantile(df, 0.975) for df in range(1, 301)]
        assert all(a > b for a, b in zip(quantiles, quantiles[1:]))
        # Cornish-Fisher: t = z + z (z^2 + 1) / (4 df) + O(df^-2), 2.4e-4 above z at df = 10^4
        z, df = 1.959963984540054, 10**4
        assert _t_quantile(df, 0.975) == pytest.approx(z + z * (z * z + 1) / (4 * df), abs=1e-7)

    def test_t_quantile_raises_where_newton_does_not_converge(self):
        with pytest.raises(ArithmeticError, match="did not converge"):
            _t_quantile(9, math.nan)


def set_cpus(monkeypatch, cpus, min_jumps=None):
    """Pretend the affinity mask holds `cpus` CPUs, and optionally fork from `min_jumps` jumps on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if min_jumps is not None:
        monkeypatch.setattr(simulate_module, "_FORK_MIN_JUMPS", min_jumps)


PARALLEL_MODELS = {
    "base_stock_b2": base_stock(lam=1, mu=2, nu=1, b=2),
    "base_stock_b50": base_stock(lam=1, mu=2, nu=10, b=50),
    "perishable_o_b2": perishable_o(lam=1, mu=2, nu=1, gamma=2, b=2),
    "perishable_o_b50": perishable_o(lam=1, mu=2, nu=10, gamma=2, b=50),
    "period_two": period_two_model(),
}


class TestParallelReplications:
    @pytest.mark.parametrize("name", PARALLEL_MODELS)
    @pytest.mark.parametrize("replications, horizon", [
        (1, 50.0),
        (2, 5000.0),  # more than one 8192-draw chunk per replication
        (3, 300.0),  # blocks of unequal size; every replication starts at (0, 0)
        (200, 10.0),
    ], ids=["one", "two_long", "three_started_at_0_0", "two_hundred"])
    def test_workers_give_the_sequential_result(self, name, replications, horizon, monkeypatch):
        model = PARALLEL_MODELS[name]
        config = SimConfig(seed=17, horizon=horizon, replications=replications)
        set_cpus(monkeypatch, 1)
        sequential = simulate(model, config)
        forks = count_forks(monkeypatch)
        assert not forks
        for cpus in (2, 3):
            set_cpus(monkeypatch, cpus, min_jumps=0)
            assert simulate(model, config) == sequential, cpus
            assert len(forks) == min(cpus, replications) - 1
            forks.clear()
        assert_no_children()

    @pytest.mark.parametrize("failing_rep", [0, 150, 199], ids=["parent", "second_worker", "last_worker"])
    def test_worker_exception_is_raised_with_its_type(self, bs_model, failing_rep, monkeypatch):
        run = simulate_module._run_replication

        def failing(table, config, rep):
            if rep == failing_rep:
                raise ZeroExitRate(f"replication {rep}")
            return run(table, config, rep)

        monkeypatch.setattr(simulate_module, "_run_replication", failing)
        set_cpus(monkeypatch, 3, min_jumps=0)
        with pytest.raises(ZeroExitRate, match=f"replication {failing_rep}$"):
            simulate(bs_model, SimConfig(horizon=10.0, replications=200))
        assert_no_children()

    def test_worker_without_a_result_exits_2(self, monkeypatch, tmp_path, capsys):
        run = simulate_module._run_replication

        def dying(table, config, rep):
            if rep == 3:
                os._exit(0)
            return run(table, config, rep)

        monkeypatch.setattr(simulate_module, "_run_replication", dying)
        set_cpus(monkeypatch, 2)
        with pytest.raises(WorkerLost, match="without a result"):
            simulate(base_stock(lam=1, mu=2, nu=1, b=2), SimConfig(horizon=5000.0, replications=4))
        assert_no_children()
        argv = ["simulate", "--catalog", "base_stock", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2",
                "--horizon", "5000", "--replications", "4", "--out", str(tmp_path)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: WorkerLost: ")
        assert_no_children()

    @pytest.mark.parametrize("horizon, replications", [(10.0, 2), (200.0, 3), (1000.0, 4)])
    def test_short_runs_stay_in_process(self, bs_model, horizon, replications, monkeypatch):
        # the largest exit rate of base stock b = 2 is 4: fewer than 2e4 jumps even at that rate
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, 2)
        simulate(bs_model, SimConfig(horizon=horizon, replications=replications))
        assert not forks

    def test_one_worker_per_cpu(self, bs_model, monkeypatch):
        forks = count_forks(monkeypatch)
        config = SimConfig(seed=3, horizon=5000.0, replications=4)
        set_cpus(monkeypatch, 1)
        sequential = simulate(bs_model, config)
        assert not forks
        for cpus, expected in ((2, 1), (4, 3), (64, 3)):
            set_cpus(monkeypatch, cpus)
            assert simulate(bs_model, config) == sequential
            assert len(forks) == expected, cpus
            forks.clear()

    def test_negative_seed_refused_before_forking(self, bs_model, monkeypatch):
        # numpy's SeedSequence refused it in the first replication, after a fork
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, 2, min_jumps=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            simulate(bs_model, SimConfig(seed=-1, horizon=100.0, replications=4))
        assert not forks


# traced peaks in MiB at base stock b = 400 while these layers built dense |K| x 3|K| rate rows; on the
# model below `_TransitionTable` reached 25.8, and the bound keeps a lower reading
DENSE_ROW_PEAKS_MIB = {"certify": 88.6, "departure_values": 73.7, "validate_model": 29.4, "_TransitionTable": 17.2}

class TestMemory:
    @pytest.mark.parametrize("layer", sorted(DENSE_ROW_PEAKS_MIB))
    def test_per_state_layers_stay_sparse(self, layer):
        # the padded move rows hold ~4 nonzeros per state here, where a dense row holds 1203 entries
        model = perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=400)
        calls = {"certify": (certify, model), "departure_values": (departure_values, model, 100, 50),
                 "validate_model": (validate_model, model, model.tail_start + model.period + 4),
                 "_TransitionTable": (simulate_module._TransitionTable, model)}
        assert traced_peak(*calls[layer]) < DENSE_ROW_PEAKS_MIB[layer] * 2**20 / 3
