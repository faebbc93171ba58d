"""Trajectory simulation of the joint chain and throughput estimation.

Replications use independent Philox-backed streams derived from
(seed, replication index) via numpy's SeedSequence spawn keys, so identical
configurations reproduce bit-identical trajectories.  A long run splits its
replications into contiguous blocks, one per CPU, and runs every block but the
first in a forked child; as each replication has its own stream, the results
are those of a sequential run.  Also contains the
expected-departure-count value iteration on the embedded jump chain and the
product-order isotonicity check used by the throughput-bounding analysis.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .model import _MOVE_STEPS, EnvqueueError, JointModel, _level_blocks, _move_rates, _representative_blocks
from .model import generator_row  # noqa: F401  (perfbench/tracing.py counts calls through this name)


class ZeroExitRate(EnvqueueError):
    """An absorbing state was reached; the model is defective."""


class WorkerLost(EnvqueueError):
    """A forked replication worker exited without sending its results."""


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    horizon: float = 1e4  # simulated time units per replication
    replications: int = 10
    warmup: float = 0.1  # fraction of the horizon discarded
    initial_state: tuple = (0, 0)

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not (0.0 <= self.warmup < 1.0):
            raise ValueError("warmup fraction must lie in [0, 1)")


@dataclass(frozen=True)
class ThroughputEstimate:
    mean: float
    half_width: float  # 95% confidence
    per_replication: tuple

    def covers(self, value: float) -> bool:
        return abs(self.mean - value) <= self.half_width


@dataclass(frozen=True)
class SimulationResult:
    estimate: ThroughputEstimate
    config: SimConfig
    total_jumps: int
    total_departures: int


class _TransitionTable:
    """Per-state-class transition data: class c holds the moves of the
    representative level c (`_representative_blocks`), each row in
    `generator_row` order, as Python objects for the per-jump loop."""

    def __init__(self, model: JointModel):
        # rows repeat with period p only from tail_start + 1 on (mu(0) = 0
        # makes level 0 special even for constant rates)
        self.base = model.tail_start + 1
        self.p = model.period
        self.m = m = model.n_env
        rates = _move_rates(*_representative_blocks(model)).reshape(-1, 3 * m)
        # totals are sequential row sums, in the order the cumulative probabilities use
        cum = np.cumsum(rates, axis=1)
        absorbing = np.flatnonzero(cum[:, -1] <= 0.0)
        if absorbing.size:
            n, k = divmod(int(absorbing[0]), m)
            raise ZeroExitRate(f"state ({n}, {k}) has no outgoing transitions")
        self.rows = []  # class index * m + k -> (total, cum_probs, ((d_n, new_k), ...))
        for row, row_cum in zip(rates, cum):
            moves = np.flatnonzero(row)
            total = float(row_cum[-1])
            probs = row_cum[moves] / total
            probs[-1] = 1.0
            self.rows.append((total, probs.tolist(), tuple((_MOVE_STEPS[j // m], j % m) for j in moves.tolist())))


_CHUNK = 8192  # chunk c of a replication's stream: 8192 holding-time uniforms, then 8192 pick uniforms
_WINDOW = 512  # uniforms converted to Python floats at a time
_SKIP = _CHUNK // 4  # Philox steps in half a chunk: each step gives four 64-bit words, one per uniform


def _uniforms(seed: int, rep: int):
    """The (u_time, u_pick) pairs of replication `rep`, one `zip` of Python floats per window.
    Philox is counter-based, so two generators on the replication's key walk the times and the
    picks of each chunk, drawing only the windows that are read and skipping the other half of
    the chunk with `advance`.  Both are seeded from the SeedSequence: `Philox(key=...)` would
    also read OS entropy."""
    seq = SeedSequence(entropy=seed, spawn_key=(rep,))
    times, picks = Philox(seq), Philox(seq).advance(_SKIP)
    draw_times, draw_picks = Generator(times).random, Generator(picks).random
    while True:
        for _ in range(_CHUNK // _WINDOW):
            yield zip(draw_times(_WINDOW).tolist(), draw_picks(_WINDOW).tolist())
        times.advance(_SKIP)
        picks.advance(_SKIP)


def _initial_state(config: SimConfig, m: int) -> tuple:
    """`config.initial_state`, checked to be a state of a model with m environment states."""
    n, k = config.initial_state
    if n < 0 or not 0 <= k < m:
        raise ValueError(f"initial_state {config.initial_state} is not a state (n >= 0, 0 <= k < {m})")
    return n, k


def _run_replication(table: _TransitionTable, config: SimConfig, rep: int, log=None):
    """One trajectory; `log(t, step, n, k)`, if given, sees every jump (the
    queue change and the state after it) and stops the run by returning
    False."""
    horizon = config.horizon
    warmup_time = config.warmup * horizon
    rows, base, p, m = table.rows, table.base, table.p, table.m
    n, k = _initial_state(config, m)
    t = 0.0
    departures = 0
    jumps = 0
    for window in _uniforms(config.seed, rep):
        for u_time, u_pick in window:
            # the fold of `_level_classes`
            total, cum, moves = rows[(n if n < base else base + (n - base) % p) * m + k]
            # math.log1p, not np.log1p: the two differ in the last bit on some
            # draws, which would change the trajectories
            dt = -math.log1p(-u_time) / total
            if t + dt > horizon:
                break
            t += dt
            dn, k = moves[bisect_left(cum, u_pick)]
            jumps += 1
            if dn == -1 and t >= warmup_time:
                departures += 1
            n += dn
            if log is not None and not log(t, dn, n, k):
                break
        else:
            continue
        break
    rate = departures / (horizon - warmup_time)
    return rate, jumps, departures


_TINY = 1e-300  # keeps Lentz's continued fraction off a zero denominator


def _log_gamma_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)); from a = 50 on by its asymptotic series,
    which avoids the cancellation between two large lgamma values."""
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1 / 8 - r * (1 / 192 - r * (1 / 640 - r * 17 / 14336))) / a


def _t_sf(t: float, df: int) -> float:
    """P(T > t), t >= 0, for Student's t with df degrees of freedom:
    I_x(df/2, 1/2) / 2 with x = df / (df + t^2), the regularized incomplete
    beta by Lentz's continued fraction on the side where it converges."""
    if t == 0.0:
        return 0.5
    a, b = 0.5 * df, 0.5
    x, xc = df / (df + t * t), t * t / (df + t * t)
    # logs of x and 1 - x, each from whichever of the two is far from 1
    lx = math.log(x) if x < 0.5 else math.log1p(-xc)
    lxc = math.log(xc) if xc < 0.5 else math.log1p(-x)
    front = a * lx + b * lxc - (math.lgamma(0.5) - _log_gamma_ratio(a))  # minus ln B(a, b)
    flip = x > (a + 1) / (a + b + 2)
    if flip:  # I_x(a, b) = 1 - I_{1-x}(b, a)
        a, b, x = b, a, xc
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for i in range(1, 1000):
        for num in (i * (b - i) * x / ((a + 2 * i - 1) * (a + 2 * i)),
                    -(a + i) * (a + b + i) * x / ((a + 2 * i) * (a + 2 * i + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    ib = math.exp(front) * h / a
    return 0.5 * (1.0 - ib if flip else ib)


def _t_quantile(df: int, p: float) -> float:
    """Quantile of Student's t with df degrees of freedom at 1/2 < p < 1:
    closed forms for df 1 and 2, else Newton on the distribution function.
    Both distribution functions here are concave for t > 0, so Newton started
    below the root stays below it and converges monotonically."""
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    z = 0.0  # the normal quantile, from 0
    for _ in range(100):
        step = (0.5 * math.erfc(z / math.sqrt(2.0)) - (1.0 - p)) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
        z += step
        if abs(step) <= 1e-12 * z:
            break
    # start from the first two Cornish-Fisher terms, which stay below the t quantile
    t = z + z * (z * z + 1.0) / (4.0 * df)
    log_c = _log_gamma_ratio(0.5 * df) - 0.5 * math.log(df * math.pi)  # log density at 0
    for _ in range(100):
        step = (_t_sf(t, df) - (1.0 - p)) / math.exp(log_c - 0.5 * (df + 1) * math.log1p(t * t / df))
        t += step
        if abs(step) <= 1e-12 * t:
            break
    return t


# ~10 ms of jump kernel, ~5x the 2 ms of a fork, exit and wait; the parent's
# first write to each page after a fork also faults, ~1 us a page
_FORK_MIN_JUMPS = 2e4


def _workers(table: _TransitionTable, config: SimConfig) -> int:
    """Processes to run the replications in: one per CPU in this process's
    affinity mask, at most one per replication.  One where `os.fork` or the
    mask is missing, or where the run is too short to pay for a fork: fewer
    jumps than `_FORK_MIN_JUMPS` even if every replication stayed in the
    state with the largest exit rate."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if config.horizon * config.replications * max(row[0] for row in table.rows) < _FORK_MIN_JUMPS:
        return 1
    return min(len(os.sched_getaffinity(0)), config.replications)


def _fork(table: _TransitionTable, config: SimConfig, reps: range):
    """Start a child that runs replications `reps` and pickles back through a
    pipe (True, their results) or (False, the exception they raised); returns
    the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    try:  # the child: it never returns into the caller's stack
        # a collection could run finalizers of the parent's garbage, such as a temporary directory's
        gc.disable()
        os.close(read_fd)
        try:
            result = (True, [_run_replication(table, config, rep) for rep in reps])
        except BaseException as exc:
            result = (False, exc)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _run_blocks(table: _TransitionTable, config: SimConfig, blocks: list) -> list:
    """(rate, jumps, departures) of each replication in `blocks`, in order:
    the first block in this process, each other one in a forked child.  The
    child runs only the jump kernel, pure Python and Philox, so forking beside
    numpy's BLAS threads is safe."""
    children = []
    try:
        for reps in blocks[1:]:
            children.append(_fork(table, config, reps))
        runs = [_run_replication(table, config, rep) for rep in blocks[0]]
        for pid, fh in children:
            try:
                ok, value = pickle.loads(fh.read())
            except (EOFError, pickle.UnpicklingError):
                raise WorkerLost(f"replication worker {pid} exited without a result") from None
            if not ok:
                raise value
            runs += value
        return runs
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)


def simulate(model: JointModel, config: SimConfig) -> SimulationResult:
    """Monte Carlo throughput estimate with a 95% t-interval over
    independent replications."""
    table = _TransitionTable(model)
    _initial_state(config, table.m)  # before any fork
    n_reps, workers = config.replications, _workers(table, config)
    blocks = [range(n_reps * i // workers, n_reps * (i + 1) // workers) for i in range(workers)]
    runs = _run_blocks(table, config, blocks)
    rates = tuple(rate for rate, _, _ in runs)
    mean = float(np.mean(rates))
    if config.replications > 1:
        sem = float(np.std(rates, ddof=1)) / math.sqrt(config.replications)
        half = _t_quantile(config.replications - 1, 0.975) * sem
    else:
        half = float("inf")
    return SimulationResult(
        estimate=ThroughputEstimate(mean=mean, half_width=half, per_replication=rates),
        config=config,
        total_jumps=sum(jumps for _, jumps, _ in runs),
        total_departures=sum(deps for _, _, deps in runs),
    )


def write_event_log(model: JointModel, config: SimConfig, path, max_events: int = 100_000) -> None:
    """Event log (time, n, k, event) of replication 0: the same random draws,
    so the same trajectory, as `simulate` makes, up to max_events events."""
    table = _TransitionTable(model)
    _initial_state(config, table.m)  # before the file exists
    labels = model.env.labels
    events = {1: "arrival", -1: "departure", 0: "env"}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,n,k,event\n")
        written = 0

        def log(t, step, n, k):
            nonlocal written
            fh.write(f"{t:.9f},{n},{labels[k]},{events[step]}\n")
            written += 1
            return written < max_events

        _run_replication(table, config, 0, log)


@dataclass(frozen=True)
class DepartureValueTable:
    """Expected departure counts within a jump horizon, per starting state,
    on the truncated rectangle {0..N_cap} x K."""

    horizon: int
    N_cap: int
    values: np.ndarray  # shape (N_cap+1, |K|), the horizon-step table
    history: np.ndarray  # shape (horizon+1, N_cap+1, |K|)


def departure_values(model: JointModel, N_cap: int, horizon: int) -> DepartureValueTable:
    """Backward value iteration v_{j+1} = r + P v_j on the embedded jump
    chain of the truncated model, where r is the one-jump departure
    probability."""
    m = model.n_env
    size = (N_cap + 1) * m
    B, U, D, cls = _level_blocks(model, N_cap)
    rates = _move_rates(B, U, D)
    # each row's total is summed in `generator_row` order
    total = np.cumsum(rates, axis=2)[:, :, -1]
    absorbing = np.flatnonzero(total[cls] <= 0.0)
    if absorbing.size:
        n, k = divmod(int(absorbing[0]), m)
        raise ZeroExitRate(f"truncated state ({n}, {k}) is absorbing")
    # each class's row of P by ascending target: level below, own level, level above; a class
    # above N_cap is never used, and its zero totals are divided by 1 to keep it finite
    prob = np.concatenate([rates[:, :, m:], rates[:, :, :m]], axis=2) / np.where(total > 0.0, total, 1.0)[:, :, None]
    prob = prob.reshape(-1, 3 * m)
    reward = np.cumsum(prob[:, :m], axis=1)[:, -1]  # departure probabilities summed in that order
    # the nonzero entries of each row, in that order, padded with zeros to a common width
    row, col = np.nonzero(prob)
    counts = np.bincount(row, minlength=len(prob))
    width = max(int(counts.max()), 1)
    rank = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    vals = np.zeros((len(prob), width))
    vals[row, rank] = prob[row, col]
    # target state relative to the first state of the row's level; padding points at the row's own state
    shift = np.repeat(np.arange(len(prob))[:, None] % m, width, axis=1)
    shift[row, rank] = col - m
    rows = (cls[:, None] * m + np.arange(m)).ravel()
    cols = (np.repeat(np.arange(N_cap + 1) * m, m)[:, None] + shift[rows]).T.copy()
    vals = vals[rows].T.copy()
    reward = reward[rows]
    history = np.zeros((horizon + 1, size))
    v = history[0]
    acc, term = np.empty(size), np.empty(size)
    for j in range(1, horizon + 1):
        # v_j = r + P v_{j-1}, each row's entries added one padded column at a time in target order
        np.multiply(vals[0], v.take(cols[0]), out=acc)
        for w in range(1, width):
            acc += np.multiply(vals[w], v.take(cols[w]), out=term)
        v = history[j]
        np.add(reward, acc, out=v)
    return DepartureValueTable(
        horizon=horizon,
        N_cap=N_cap,
        values=v.reshape(N_cap + 1, m).copy(),
        history=history.reshape(horizon + 1, N_cap + 1, m),
    )


@dataclass(frozen=True)
class IsotoneReport:
    isotone: bool
    violations: tuple  # ((m, k), (m', k'), margin, boundary_affected)


def isotone_check(table: DepartureValueTable, atol: float = 1e-12) -> IsotoneReport:
    """Check monotonicity in the product order on (queue length, env index)
    via the two covering relations.  States within `horizon` jumps of the
    queue cap are flagged as boundary-affected."""
    v = table.values
    # gap[m, k, r] = v(m, k) - v at cover r of (m+1, k), (m, k+1); -inf off the table
    gap = np.full(v.shape + (2,), -np.inf)
    gap[:-1, :, 0] = v[:-1] - v[1:]
    gap[:, :-1, 1] = v[:, :-1] - v[:, 1:]
    # C order lists the violations by state, then relation
    ms, ks, rel = np.nonzero(gap > atol)
    safe = table.N_cap - table.horizon
    violations = tuple(
        ((m_, k), (m_ + 1 - r, k + r), g, m_ + 1 - r > safe)
        for m_, k, r, g in zip(ms.tolist(), ks.tolist(), rel.tolist(), gap[ms, ks, rel].tolist())
    )
    return IsotoneReport(isotone=not violations, violations=violations)
