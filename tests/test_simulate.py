"""Trajectory simulation and throughput estimation."""

import math
import os
import signal
import subprocess
import sys
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from envqueue import forkjoin
from envqueue import simulate as simulate_module
from envqueue.bounds import departure_values
from envqueue.catalog import base_stock, mm1_plain, perishable_o
from envqueue.cli import EXIT_ERROR, EXIT_OK, main
from envqueue.ergodicity import certify
from envqueue.forkjoin import WorkerLost, run_blocks, split
from envqueue.separability import reachability
from envqueue.simulate import (WARMUP, SimConfig, ZeroExitRate, _run_block, _streams, _t_quantile, _TransitionTable,
                               simulate)

from conftest import (assert_no_children, assert_no_zombies, count_forks, period_two_model, reference_replication,
                      reference_simulate, stream_key, traced_peak)


# seeds of one, two, three, five and ten 32-bit words
STREAM_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 12345, 3**200]


def fresh_windows(seed, rep, count):
    """The first `count` (exponentials, uniforms) windows of replication `rep`, as lists,
    from a generator of its own on its key."""
    rng = Generator(Philox(key=stream_key(seed, rep)))
    return [(rng.standard_exponential(512).tolist(), rng.random(512).tolist()) for _ in range(count)]


def read_windows(windows, count):
    return [(e_time.tolist(), u_pick.tolist()) for e_time, u_pick in islice(windows, count)]


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
             (0.6777777777777778, 0.6333333333333333, 0.6888888888888889), 1214),
            (perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2), 200.0, 3,
             (0.5833333333333334, 0.46111111111111114, 0.5777777777777777), 1431),
            # many 512-draw windows per replication
            (base_stock(lam=1, mu=2, nu=1, b=2), 5000.0, 2, (0.6666666666666666, 0.6857777777777778), 20224),
            # a two-level prefix and period 2: every branch of the class fold
            (period_two_model(), 3000.0, 2, (0.7129629629629629, 0.7411111111111112), 23981),
        ],
        ids=["base_stock", "perishable_o", "base_stock_long", "period_two_long"],
    )
    def test_trajectories_pinned(self, model, horizon, replications, per_replication, jumps):
        # values of the stream keyed by (replication, seed hash): the
        # trajectories for a seed must not move
        result = simulate(model, SimConfig(seed=5, horizon=horizon, replications=replications))
        assert result.estimate.per_replication == per_replication
        assert result.total_jumps == jumps

    def test_many_short_replications_pinned(self, bs_model):
        # ~400 jumps a replication: each reads one window
        result = simulate(bs_model, SimConfig(seed=5, horizon=200.0, replications=200))
        assert result.total_jumps == 80118
        assert result.total_departures == 24066
        assert sum(result.estimate.per_replication) == 133.7

    @pytest.mark.parametrize("rep", [0, 255, 256, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_stream_matches_a_fresh_generator(self, seed, rep):
        # the index fills one 64-bit key word, and the seed's hash reads every entropy word
        (windows,) = _streams(seed, range(rep, rep + 1))
        assert read_windows(windows, 3) == fresh_windows(seed, rep, 3)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("reps", [range(254, 259), range(2**64 - 5, 2**64)], ids=["mid_range", "last_keys"])
    def test_block_streams_match_fresh_generators(self, seed, reps):
        # a forked worker's block starts mid-range; each replication leaves its
        # stream at another point before the next one reuses the generator
        for rep, windows, count in zip(reps, _streams(seed, reps), (1, 3, 0, 4, 2), strict=True):
            assert read_windows(windows, count) == fresh_windows(seed, rep, count), rep

    def test_streams_differ(self):
        # distinct replications, and seeds that differ only above bit 64
        firsts = {}
        for seed in (0, 1, 3**200, 3**200 + 2**64):
            for rep, windows in zip(range(3), _streams(seed, range(3))):
                e_time, u_pick = next(windows)
                firsts[seed, rep] = (e_time[0], u_pick[0])
        assert len(set(firsts.values())) == len(firsts)

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

    @pytest.mark.parametrize("field, value, message", [
        ("replications", 2.5, "replications must be an integer, got 2.5"),
        ("replications", True, "replications must be an integer, got True"),
        ("replications", 2**64 + 1, "replications must be >= 1 and <= 2**64, got 18446744073709551617"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("horizon", True, "horizon must be finite and > 0, got True"),
    ])
    def test_config_refuses_non_integers_and_booleans(self, field, value, message):
        # a float count failed in `forkjoin.split` after the transition table was built,
        # a float seed in numpy, and booleans ran as 1
        with pytest.raises(ValueError) as info:
            SimConfig(**{field: value})
        assert str(info.value) == message

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


def outcome(result):
    return result.estimate.per_replication, result.total_jumps, result.total_departures


def reference_path(model, seed, horizon):
    """The (time, queue change) of each jump of replication 0 up to `horizon`."""
    path = []
    reference_replication(_TransitionTable(model), seed, horizon, 0, path)
    return path


def horizon_with_warmup_at(t):
    """A horizon whose warm-up time WARMUP * horizon is exactly t, or None."""
    horizon = t / WARMUP
    for _ in range(4):
        if WARMUP * horizon == t:
            return horizon
        horizon = math.nextafter(horizon, math.inf if WARMUP * horizon < t else -math.inf)
    return None


class TestKernelAgainstReference:
    """`simulate` against `conftest.reference_replication`, the jump loop with a
    fresh generator per replication, on the kernel's edge cases."""

    @pytest.mark.parametrize("jumps", [511, 512, 1023, 1024, 2 * 512 + 511],
                             ids=["window_end", "window_start", "second_window_end", "third_window_start",
                                  "third_window_end"])
    def test_horizon_crossing(self, bs_model, jumps):
        # a horizon between the jumps-th and the next jump time: the crossing draw is draw `jumps`
        # of the stream, the last of a window for 511, 1023 and 2 * 512 + 511
        times = [t for t, _ in reference_path(bs_model, 11, 1e4)]
        horizon = times[jumps - 1] / 2 + times[jumps] / 2
        config = SimConfig(seed=11, horizon=horizon, replications=1)
        result = outcome(simulate(bs_model, config))
        assert result == reference_simulate(_TransitionTable(bs_model), config)
        assert result[1] == jumps

    def test_zero_jump_replications(self, bs_model):
        # the horizon falls before the first holding time of every replication
        config = SimConfig(seed=3, horizon=1e-9, replications=7)
        result = outcome(simulate(bs_model, config))
        assert result == reference_simulate(_TransitionTable(bs_model), config)
        assert result == ((0.0,) * 7, 0, 0)

    @pytest.mark.parametrize("dn", [0, -1], ids=["environment_only", "departure"])
    def test_warmup_ends_on_a_jump(self, bs_model, dn):
        # the first jump at or after the warm-up time is an environment-only move or a
        # departure, landing strictly after the warm-up time and exactly on it
        path = reference_path(bs_model, 5, 1e3)
        checked = set()
        for j in range(30, len(path)):
            if path[j][1] != dn:
                continue
            for kind, warmup in (("after", (path[j - 1][0] + path[j][0]) / 2), ("on", path[j][0])):
                horizon = horizon_with_warmup_at(warmup) if kind == "on" else warmup / WARMUP
                if kind in checked or horizon is None:
                    continue
                assert path[j - 1][0] < WARMUP * horizon <= path[j][0]
                config = SimConfig(seed=5, horizon=horizon, replications=2)
                assert outcome(simulate(bs_model, config)) == reference_simulate(_TransitionTable(bs_model), config)
                checked.add(kind)
        assert checked == {"after", "on"}

    def test_horizon_crossed_from_inside_the_warmup(self):
        # a departure before the warm-up time, then no jump until after the horizon: the
        # warm-up departures must not count.  At n = 0 only arrivals (rate 1) leave, so a
        # few percent of the replications end this way.
        model = mm1_plain(lam=1.0, mu=100.0)
        config = SimConfig(seed=0, horizon=1.0, replications=200)
        table = _TransitionTable(model)
        assert outcome(simulate(model, config)) == reference_simulate(table, config)
        crossed = 0
        for rep in range(config.replications):
            path = []
            reference_replication(table, config.seed, config.horizon, rep, path)
            crossed += any(dn < 0 for _, dn in path) and path[-1][0] < WARMUP * config.horizon
        assert crossed

    @pytest.mark.parametrize("model", [period_two_model(), mm1_plain(lam=2.0, mu=1.0),
                                       perishable_o(lam=1, mu=2, nu=1, gamma=2, b=2)],
                             ids=["period_two", "mm1_transient", "perishable_o"])
    def test_levels_in_the_periodic_tail(self, model):
        # the trajectory climbs past the listed classes, so the fold picks the rows
        config = SimConfig(seed=9, horizon=300.0, replications=3)
        table = _TransitionTable(model)
        assert outcome(simulate(model, config)) == reference_simulate(table, config)
        levels = np.cumsum([dn for _, dn in reference_path(model, 9, 300.0)])
        assert levels.max() >= len(table.levels)


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


def listed(reps, fail=-1, leave=-1):
    """`list(reps)`, as the work of `run_blocks`: raises in the block holding replication `fail`
    and leaves the process in the one holding `leave`.  A module-level function pickles, as the
    work sent to a worker must; a local function does not."""
    if leave in reps:
        os._exit(0)
    if fail in reps:
        raise ZeroExitRate(f"replication {fail}")
    return list(reps)


def pool_size(block):
    return len(forkjoin._pool)


OWNER = os.getpid()


def killed_in_worker(table, config, block):
    """`_run_block` in this process; a worker that takes a block is killed mid-block."""
    if os.getpid() != OWNER:
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_block(table, config, block)


BS_ARGS = ["--catalog", "base_stock", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2"]

# a CLI run that forks one worker, then prints the worker's pid; with "sigint", it interrupts the
# idle worker, prints the worker's exit code and runs again, as after a Ctrl-C at a terminal
POOL_PROBE = """
import contextlib, io, os, signal, sys
from envqueue import forkjoin, simulate
from envqueue.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
simulate._FORK_MIN_JUMPS = 0
def run(out):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["simulate", *sys.argv[3:], "--horizon", "100", "--replications", "4",
                     "--out", os.path.join(sys.argv[1], out)])
code = run("first")
(worker,) = forkjoin._pool
print(worker.pid, flush=True)
if sys.argv[2] == "sigint":
    os.kill(worker.pid, signal.SIGINT)
    print(os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1]))
    code = code or run("again")
sys.exit(code)
"""


def run_pool_probe(tmp_path, mode):
    """(stdout lines, stderr) of `POOL_PROBE` in a fresh interpreter, which must exit 0 within a minute."""
    path = os.pathsep.join([str(Path(forkjoin.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE, str(tmp_path), mode, *BS_ARGS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split(), proc.stderr


@pytest.mark.usefixtures("fresh_pool")
class TestParallelReplications:
    @pytest.mark.parametrize("name", PARALLEL_MODELS)
    @pytest.mark.parametrize("replications, horizon", [
        (1, 50.0),
        (2, 5000.0),  # many 512-draw windows per replication
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
            # the pool grows to the largest number of workers a call has needed
            assert len(forks) == min(cpus, replications) - 1
        forkjoin.shutdown()
        assert_no_children()

    def test_consecutive_calls_reuse_the_workers(self, bs_model, monkeypatch):
        forks = count_forks(monkeypatch)
        config = SimConfig(seed=3, horizon=5000.0, replications=4)
        set_cpus(monkeypatch, 1)
        sequential = simulate(bs_model, config)
        assert not forks
        for cpus, expected in ((2, 1), (2, 1), (4, 3), (4, 3), (64, 3), (2, 3)):
            set_cpus(monkeypatch, cpus)
            assert simulate(bs_model, config) == sequential
            assert len(forks) == expected, cpus
        assert_no_zombies()

    @pytest.mark.parametrize("failing_rep, refork", [(0, 2), (100, 1), (199, 0)],
                             ids=["parent", "first_worker", "last_worker"])
    def test_exception_is_raised_with_its_type(self, failing_rep, refork, monkeypatch):
        blocks = split(200, 3)
        assert run_blocks(listed, blocks) == [list(block) for block in blocks]
        forks = count_forks(monkeypatch)
        with pytest.raises(ZeroExitRate, match=f"replication {failing_rep}$"):
            run_blocks(partial(listed, fail=failing_rep), blocks)
        assert_no_zombies()
        # the workers whose replies were left unread are closed, and forked afresh
        assert run_blocks(listed, blocks) == [list(block) for block in blocks]
        assert len(forks) == refork

    def test_lost_worker_raises_and_is_replaced(self, monkeypatch):
        blocks = split(4, 2)
        with pytest.raises(WorkerLost, match="without a result"):
            run_blocks(partial(listed, leave=3), blocks)
        assert_no_zombies()
        assert not forkjoin._pool
        assert run_blocks(listed, blocks) == [[0, 1], [2, 3]]

    def test_worker_killed_mid_block_exits_2_and_the_next_call_succeeds(self, monkeypatch, tmp_path, capsys):
        set_cpus(monkeypatch, 2, min_jumps=0)
        argv = ["simulate", *BS_ARGS, "--horizon", "100", "--replications", "4"]
        assert main([*argv, "--out", str(tmp_path / "first")]) == EXIT_OK
        forks = count_forks(monkeypatch)
        with monkeypatch.context() as patch:
            # the worker forked above finds the patched function by name
            patch.setattr(simulate_module, "_run_block", killed_in_worker)
            capsys.readouterr()
            assert main([*argv, "--out", str(tmp_path / "lost")]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: WorkerLost: ")
        assert_no_zombies()
        assert not forkjoin._pool and not forks
        assert main([*argv, "--out", str(tmp_path / "again")]) == EXIT_OK
        assert len(forks) == 1
        assert (tmp_path / "again" / "simulation.json").read_bytes() == (tmp_path / "first" / "simulation.json").read_bytes()

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGKILL], ids=["sigint", "sigkill"])
    def test_worker_killed_while_idle_is_replaced(self, signum, monkeypatch, tmp_path):
        set_cpus(monkeypatch, 2, min_jumps=0)
        argv = ["simulate", *BS_ARGS, "--horizon", "100", "--replications", "4"]
        assert main([*argv, "--out", str(tmp_path / "first")]) == EXIT_OK
        (worker,) = forkjoin._pool
        os.kill(worker.pid, signum)
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        forks = count_forks(monkeypatch)
        assert main([*argv, "--out", str(tmp_path / "again")]) == EXIT_OK
        assert len(forks) == 1 and forkjoin._pool[0].pid != worker.pid
        assert_no_zombies()
        assert (tmp_path / "again" / "simulation.json").read_bytes() == (tmp_path / "first" / "simulation.json").read_bytes()

    def test_workers_do_not_inherit_the_pool(self):
        # a forked process closes the pipes of the workers forked before it
        assert run_blocks(pool_size, split(3, 3)) == [2, 0, 0]

    def test_cli_process_reaps_its_worker_at_exit(self, tmp_path):
        (pid,), stderr = run_pool_probe(tmp_path, "exit")
        assert stderr == ""
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)

    def test_interrupted_idle_worker_prints_nothing(self, tmp_path):
        # and the run after it forks a fresh worker and exits 0
        (pid, code), stderr = run_pool_probe(tmp_path, "sigint")
        assert (code, stderr) == ("0", "")
        assert (tmp_path / "again" / "simulation.json").read_bytes() == (tmp_path / "first" / "simulation.json").read_bytes()

    @pytest.mark.parametrize("horizon, replications, forked", [(10.0, 2, 0), (200.0, 3, 0), (1000.0, 4, 0),
                                                                (1249.0, 4, 0), (1250.0, 4, 1)])
    def test_short_runs_stay_in_process(self, bs_model, horizon, replications, forked, monkeypatch):
        # the largest exit rate of base stock b = 2 is 4: a run forks from 2e4 jumps at that rate on
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, 2)
        simulate(bs_model, SimConfig(horizon=horizon, replications=replications))
        assert len(forks) == forked

    @pytest.mark.parametrize("replications", [1, 7, 200])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_each_block_builds_one_generator(self, bs_model, replications, cpus, monkeypatch):
        # the blocks run in this process, so the constructor calls of every block are counted here
        built = []
        monkeypatch.setattr(simulate_module, "Philox", lambda *args: built.append(args) or Philox(*args))
        monkeypatch.setattr(simulate_module, "run_blocks", lambda work, blocks: [work(block) for block in blocks])
        set_cpus(monkeypatch, cpus, min_jumps=0)
        config = SimConfig(seed=4, horizon=20.0, replications=replications)
        assert outcome(simulate(bs_model, config)) == reference_simulate(_TransitionTable(bs_model), config)
        assert len(built) <= min(cpus, replications)

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
                 "validate_model": (reachability, model),
                 "_TransitionTable": (simulate_module._TransitionTable, model)}
        assert traced_peak(*calls[layer]) < DENSE_ROW_PEAKS_MIB[layer] * 2**20 / 3
