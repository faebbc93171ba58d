"""Trajectory simulation of the joint chain and throughput estimation.

Replications use independent Philox-backed streams derived from
(seed, replication index) via numpy's SeedSequence spawn keys, so identical
configurations reproduce bit-identical trajectories.  A long run splits its
replications into contiguous blocks, one per CPU, and runs every block but the
first in a forked child (`forkjoin.run_blocks`); as each replication has its
own stream, the results are those of a sequential run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .forkjoin import cpus, run_blocks, split
from .model import EnvqueueError, JointModel, _level_moves, _representatives
from .model import generator_row  # noqa: F401  (perfbench/tracing.py counts calls through this name)


WARMUP = 0.1  # fraction of each replication's horizon discarded before departures count


class ZeroExitRate(EnvqueueError):
    """An absorbing state was reached; the model is defective."""


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    horizon: float = 1e4  # simulated time units per replication
    replications: int = 10
    initial_state: tuple = (0, 0)

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    representative level c (`_level_moves`), each row in `generator_row`
    order, as Python objects for the per-jump loop."""

    def __init__(self, model: JointModel):
        # rows repeat with period p only from tail_start + 1 on (mu(0) = 0
        # makes level 0 special even for constant rates)
        self.base = model.tail_start + 1
        self.p = model.period
        self.m = m = model.n_env
        moves = _level_moves(model, _representatives(model))
        rate = moves.rate.reshape(-1, moves.rate.shape[2])
        # totals are sequential row sums, in the order the cumulative probabilities use
        cum = np.cumsum(rate, axis=1)
        absorbing = np.flatnonzero(cum[:, -1] <= 0.0)
        if absorbing.size:
            n, k = divmod(int(absorbing[0]), m)
            raise ZeroExitRate(f"state ({n}, {k}) has no outgoing transitions")
        self.max_rate = float(cum[:, -1].max())
        probs = cum / cum[:, -1:]
        counts = np.count_nonzero(rate, axis=1)  # the moves come first, then the padding
        probs[np.arange(len(probs)), counts - 1] = 1.0
        rows = [(-total, row_probs[:count], tuple(divmod(s, m) for s in shifts[:count]))
                for total, count, row_probs, shifts in zip(cum[:, -1].tolist(), counts.tolist(), probs.tolist(),
                                                           moves.shift.reshape(rate.shape).tolist())]
        # class index -> row k -> (-total exit rate, cum_probs, ((d_n, new_k), ...))
        self.levels = [rows[i : i + m] for i in range(0, len(rows), m)]


_CHUNK = 8192  # chunk c of a replication's stream: 8192 holding-time uniforms, then 8192 pick uniforms
_WINDOW = 512  # uniforms converted to Python floats at a time
_SKIP = _CHUNK // 4  # Philox steps in half a chunk: each step gives four 64-bit words, one per uniform


def _uniforms(seed: int, rep: int):
    """The uniforms of replication `rep`, one (u_time, u_pick) pair of arrays per window.
    Philox is counter-based, so two generators on the replication's key walk the times and the
    picks of each chunk, drawing only the windows that are read and skipping the other half of
    the chunk with `advance`.  Both are seeded from the SeedSequence: `Philox(key=...)` would
    also read OS entropy."""
    seq = SeedSequence(entropy=seed, spawn_key=(rep,))
    times, picks = Philox(seq), Philox(seq).advance(_SKIP)
    draw_times, draw_picks = Generator(times).random, Generator(picks).random
    while True:
        for _ in range(_CHUNK // _WINDOW):
            yield draw_times(_WINDOW), draw_picks(_WINDOW)
        times.advance(_SKIP)
        picks.advance(_SKIP)


def _initial_state(config: SimConfig, m: int) -> tuple:
    """`config.initial_state`, checked to be a state of a model with m environment states."""
    n, k = config.initial_state
    if n < 0 or not 0 <= k < m:
        raise ValueError(f"initial_state {config.initial_state} is not a state (n >= 0, 0 <= k < {m})")
    return n, k


def _run_replication(table: _TransitionTable, config: SimConfig, rep: int):
    """(departure rate after the warm-up, jumps, departures) of one trajectory.
    The holding time is log1p(-u) / (-total), which is -log1p(-u) / total
    exactly: negation is exact and IEEE division is symmetric in sign."""
    horizon = config.horizon
    warmup_time = WARMUP * horizon
    levels, base, p = table.levels, table.base, table.p
    n, k = _initial_state(config, table.m)
    level = levels[n if n < base else base + (n - base) % p]  # the fold of `_level_classes`
    t = 0.0
    departures = 0
    jumps = 0  # made in the windows read to their end
    for u_time, u_pick in _uniforms(config.seed, rep):
        # math.log1p, not np.log1p: the two differ in the last bit on some
        # draws, which would change the trajectories
        draws = zip(map(math.log1p, (-u_time).tolist()), u_pick.tolist())
        for log_u, pick in draws:
            neg_total, cum, moves = level[k]
            t_next = t + log_u / neg_total
            if t_next > horizon:
                # each draw of this window before this one made a jump
                jumps += _WINDOW - 1 - sum(1 for _ in draws)
                return departures / (horizon - warmup_time), jumps, departures
            t = t_next
            dn, k = moves[bisect_left(cum, pick)]
            if dn:
                if dn < 0 and t >= warmup_time:
                    departures += 1
                n += dn
                level = levels[n if n < base else base + (n - base) % p]
        jumps += _WINDOW


def _t_tail(t: float, df: int) -> tuple:
    """(P(T > t), density at t) of Student's t with integer df >= 2 at t >= 0, from the
    finite sums in theta = atan(t / sqrt(df)) (Abramowitz & Stegun 26.7.3-4):
    P(|T| <= t) is sin(theta) S for even df and (2 theta + sin(2 theta) S) / pi for odd
    df, where x = cos(theta)^2 and S = 1 + r_a x (1 + r_{a+2} x (1 + ... r_{df-3} x)),
    r_a = a / (a + 1) from a = 1 + df % 2.  S is added by Horner's rule from its last
    term, so every partial sum is positive.  The density is
    sqrt(df) cos(theta)^(df+1) / 2 times the product of r_a up to a = df - 1, and
    times 2 / pi for odd df."""
    d = df + t * t
    x = df / d
    sin, cos = t / math.sqrt(d), math.sqrt(x)
    s, c = 1.0, (df - 1) / df
    for a in range(df - 3, 0, -2):
        r = a / (a + 1)
        s = 1.0 + r * x * s
        c *= r
    density = 0.5 * math.sqrt(df) * c * cos ** (df + 1)
    if df % 2:
        return (math.atan2(math.sqrt(df), t) - sin * cos * s) / math.pi, density * 2.0 / math.pi
    return 0.5 * (1.0 - sin * s), density


def _t_quantile(df: int, p: float) -> float:
    """Quantile of Student's t with df degrees of freedom at 1/2 < p < 1:
    closed forms for df 1 and 2, else Newton on the tail from t = 0.  The tail
    is convex for t > 0, so the iterates rise monotonically to the root, and a
    step that does not rise is round-off."""
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    t = 0.0
    for _ in range(100):
        tail, density = _t_tail(t, df)
        step = (tail - (1.0 - p)) / density
        t += step
        if step <= 1e-12 * t:
            return t
    raise ArithmeticError(f"t quantile at df = {df}, p = {p} did not converge")


# ~10 ms of jump kernel, ~5x the 2 ms of a fork, exit and wait; the parent's
# first write to each page after a fork also faults, ~1 us a page
_FORK_MIN_JUMPS = 2e4


def _workers(table: _TransitionTable, config: SimConfig) -> int:
    """Processes to run the replications in: one per CPU (`forkjoin.cpus`), at
    most one per replication.  One where the run is too short to pay for a
    fork: fewer jumps than `_FORK_MIN_JUMPS` even if every replication stayed
    in the state with the largest exit rate."""
    if config.horizon * config.replications * table.max_rate < _FORK_MIN_JUMPS:
        return 1
    return min(cpus(), config.replications)


def simulate(model: JointModel, config: SimConfig) -> SimulationResult:
    """Monte Carlo throughput estimate with a 95% t-interval over
    independent replications.  The replications run in contiguous blocks,
    one per worker (`_workers`), through `forkjoin.run_blocks`; a child runs
    only the jump kernel, pure Python and Philox, and no BLAS."""
    table = _TransitionTable(model)
    _initial_state(config, table.m)  # before any fork
    blocks = split(config.replications, _workers(table, config))
    runs = list(chain.from_iterable(run_blocks(
        lambda reps: [_run_replication(table, config, rep) for rep in reps], blocks)))
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
