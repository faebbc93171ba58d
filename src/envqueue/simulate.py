"""Trajectory simulation of the joint chain and throughput estimation.

Replication `rep` of seed `seed` draws from its own Philox stream,
`Generator(Philox(key=(rep, h)))` at counter 0, where h is the 64-bit word
`SeedSequence(seed).generate_state(1, np.uint64)[0]`; two seeds share h, and so
every stream, with probability 2**-64.  The stream is read in windows of 512
standard exponentials (holding times at unit rate) followed by 512 uniforms
(move picks).  Identical configurations reproduce bit-identical trajectories
with a given numpy version: numpy does not freeze `Generator` methods across
releases.  A long run splits its replications into contiguous blocks, one per
CPU, and runs every block but the first in a forked worker
(`forkjoin.run_blocks`), which the process keeps for its later runs and reaps
at exit.  A block reuses one generator, setting each
replication's key into its state (`_streams`); as each replication has its own
stream, the results are those of a sequential run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import length_hint
from typing import NamedTuple

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

    def __post_init__(self):
        # a boolean is no number, as in `catalog._number`
        if isinstance(self.horizon, (bool, np.bool_)) or not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon!r}")
        for name in ("replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # a replication index is one 64-bit Philox key word (`_streams`)
        if not 1 <= self.replications <= 2**64:
            raise ValueError(f"replications must be >= 1 and <= 2**64, got {self.replications}")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class ThroughputEstimate(NamedTuple):
    mean: float
    half_width: float  # 95% confidence
    per_replication: tuple

    def covers(self, value: float) -> bool:
        return abs(self.mean - value) <= self.half_width


class SimulationResult(NamedTuple):
    estimate: ThroughputEstimate
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
        m = model.n_env
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
        rows = [(total, row_probs[:count], tuple(divmod(s, m) for s in shifts[:count]))
                for total, count, row_probs, shifts in zip(cum[:, -1].tolist(), counts.tolist(), probs.tolist(),
                                                           moves.shift.reshape(rate.shape).tolist())]
        # class index -> row k -> (total exit rate, cum_probs, ((d_n, new_k), ...))
        self.levels = [rows[i : i + m] for i in range(0, len(rows), m)]


_WINDOW = 512  # draws converted to Python floats at a time: exponentials, then uniforms


def _streams(seed: int, reps: range):
    """For each replication of `reps` in turn, an iterator of its stream (module
    docstring), one (exponentials, uniforms) pair of arrays per window.  The block
    reuses one generator, setting each replication's key into its state, so a
    replication's windows must be read before the next replication is drawn.  The
    generator starts from a fixed seed whose state is overwritten: `Philox(key=...)`
    would also read OS entropy."""
    h = int(SeedSequence(seed).generate_state(1, np.uint64)[0])
    bits = Philox(0)
    rng = Generator(bits)

    def windows():
        while True:
            yield rng.standard_exponential(_WINDOW), rng.random(_WINDOW)

    state = bits.state
    for rep in reps:
        state["state"] = {"counter": (0, 0, 0, 0), "key": (rep, h)}
        bits.state = state
        yield windows()


def _run_replication(table: _TransitionTable, horizon: float, windows):
    """(departure rate after the warm-up, jumps, departures) of one trajectory
    started at (0, 0), drawn from `windows` (`_streams`): each holding time is a
    standard exponential over the state's total exit rate."""
    warmup_time = WARMUP * horizon
    levels, base, p = table.levels, table.base, table.p
    n, k = 0, 0
    level = levels[0]
    t = 0.0
    departures = 0
    jumps = 0  # made in the windows read to their end
    for e_time, u_pick in windows:
        picks = iter(u_pick.tolist())
        for e, pick in zip(e_time.tolist(), picks):
            total, cum, moves = level[k]
            t_next = t + e / total
            if t_next > horizon:
                # each draw of this window before this one made a jump
                jumps += _WINDOW - 1 - length_hint(picks)
                return departures / (horizon - warmup_time), jumps, departures
            t = t_next
            dn, k = moves[bisect_left(cum, pick)]
            if dn:
                if dn < 0 and t >= warmup_time:
                    departures += 1
                n += dn
                level = levels[n if n < base else base + (n - base) % p]  # the fold of `_level_classes`
        jumps += _WINDOW


def _run_block(table: _TransitionTable, config: SimConfig, reps: range) -> list:
    """`_run_replication` of each replication of `reps`, in order."""
    return [_run_replication(table, config.horizon, windows) for windows in _streams(config.seed, reps)]


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


# a run bounded at 2e4 jumps makes ~1e4 (base stock b = 2) to ~3e3 (b = 100), ~2.6
# to ~0.8 ms of kernel at ~3.9 jumps/us, and a second CPU saves half of that: 3 to
# 14x the round trip of a block sent to a live worker, 0.09 ms with b = 2's table
# and 0.25 ms with b = 100's (pickling the table, the pipe, waking the worker, the
# reply).  On two CPUs, two broke even with one from 1e4 to 2e4 and won from 5e4.
# A process's first such run also forks the worker, ~3 ms once.
_FORK_MIN_JUMPS = 2e4


def _workers(table: _TransitionTable, config: SimConfig) -> int:
    """Processes to run the replications in: one per CPU (`forkjoin.cpus`), at
    most one per replication.  One where the run is too short to pay for a
    worker's round trip: fewer jumps than `_FORK_MIN_JUMPS` even if every
    replication stayed in the state with the largest exit rate."""
    if config.horizon * config.replications * table.max_rate < _FORK_MIN_JUMPS:
        return 1
    return min(cpus(), config.replications)


def simulate(model: JointModel, config: SimConfig) -> SimulationResult:
    """Monte Carlo throughput estimate with a 95% t-interval over
    independent replications.  The replications run in contiguous blocks,
    one per worker (`_workers`), through `forkjoin.run_blocks`; a worker runs
    one Philox generator and the jump kernel in pure Python, and no BLAS."""
    table = _TransitionTable(model)
    blocks = split(config.replications, _workers(table, config))
    runs = list(chain.from_iterable(run_blocks(partial(_run_block, table, config), blocks)))
    rates = tuple(rate for rate, _, _ in runs)
    mean = float(np.mean(rates))
    if config.replications > 1:
        with np.errstate(over="ignore"):  # rates past 1e154 square past the float range: the half-width is inf
            sem = float(np.std(rates, ddof=1)) / math.sqrt(config.replications)
        half = _t_quantile(config.replications - 1, 0.975) * sem
    else:
        half = float("inf")
    return SimulationResult(
        estimate=ThroughputEstimate(mean=mean, half_width=half, per_replication=rates),
        total_jumps=sum(jumps for _, jumps, _ in runs),
        total_departures=sum(deps for _, _, deps in runs),
    )
