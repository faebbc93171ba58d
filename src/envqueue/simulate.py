"""Trajectory simulation of the joint chain and throughput estimation.

Replications use independent Philox-backed streams derived from
(seed, replication index) via numpy's SeedSequence spawn keys, so identical
configurations reproduce bit-identical trajectories.  Also contains the
expected-departure-count value iteration on the embedded jump chain and the
product-order isotonicity check used by the throughput-bounding analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .model import EnvqueueError, JointModel, generator_row


class ZeroExitRate(EnvqueueError):
    """An absorbing state was reached; the model is defective."""


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    horizon: float = 1e4  # simulated time units per replication
    replications: int = 10
    warmup: float = 0.1  # fraction of the horizon discarded
    initial_state: tuple = (0, 0)

    def __post_init__(self):
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
    """Per-state-class transition data; classes collapse the periodic tail."""

    def __init__(self, model: JointModel):
        # rows repeat with period p only from tail_start + 1 on (mu(0) = 0
        # makes level 0 special even for constant rates)
        self.base = model.tail_start + 1
        self.p = model.period
        self.m = model.n_env
        self.rows = []  # class index -> (total, cum_probs, d_n, new_k, is_dep)
        for n in range(self.base + self.p):
            for k in range(self.m):
                row = generator_row(model, (n, k))
                total = row.total_rate()
                if total <= 0.0:
                    raise ZeroExitRate(f"state ({n}, {k}) has no outgoing transitions")
                rates = np.array([r for _, r in row.transitions])
                cum = np.cumsum(rates) / total
                cum[-1] = 1.0
                dn = np.array([nn - n for (nn, _), _ in row.transitions], dtype=np.int64)
                nk = np.array([kk for (_, kk), _ in row.transitions], dtype=np.int64)
                dep = dn == -1
                self.rows.append((total, cum, dn, nk, dep))

    def row(self, n: int, k: int):
        cls = n if n < self.base else self.base + (n - self.base) % self.p
        return self.rows[cls * self.m + k]


def _run_replication(table: _TransitionTable, config: SimConfig, rep: int, log=None):
    """One trajectory; `log(t, step, n, k)`, if given, sees every jump (the
    queue change and the state after it) and stops the run by returning
    False."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))))
    horizon = config.horizon
    warmup_time = config.warmup * horizon
    n, k = config.initial_state
    t = 0.0
    departures = 0
    jumps = 0
    chunk = 8192
    u_time = u_pick = None
    idx = chunk
    while True:
        total, cum, dn, nk, dep = table.row(n, k)
        if idx >= chunk:
            u_time = rng.random(chunk)
            u_pick = rng.random(chunk)
            idx = 0
        dt = -math.log1p(-u_time[idx]) / total
        if t + dt > horizon:
            break
        t += dt
        j = int(np.searchsorted(cum, u_pick[idx]))
        idx += 1
        jumps += 1
        if dep[j] and t >= warmup_time:
            departures += 1
        n += int(dn[j])
        k = int(nk[j])
        if log is not None and not log(t, int(dn[j]), n, k):
            break
    rate = departures / (horizon - warmup_time)
    return rate, jumps, departures


def simulate(model: JointModel, config: SimConfig) -> SimulationResult:
    """Monte Carlo throughput estimate with a 95% t-interval over
    independent replications."""
    table = _TransitionTable(model)
    rates, jumps, deps = [], 0, 0
    for rep in range(config.replications):
        rate, j, d = _run_replication(table, config, rep)
        rates.append(rate)
        jumps += j
        deps += d
    rates = tuple(rates)
    mean = float(np.mean(rates))
    if config.replications > 1:
        sem = float(np.std(rates, ddof=1)) / math.sqrt(config.replications)
        half = float(stats.t.ppf(0.975, config.replications - 1)) * sem
    else:
        half = float("inf")
    return SimulationResult(
        estimate=ThroughputEstimate(mean=mean, half_width=half, per_replication=rates),
        config=config,
        total_jumps=jumps,
        total_departures=deps,
    )


def write_event_log(model: JointModel, config: SimConfig, path, max_events: int = 100_000) -> None:
    """Event log (time, n, k, event) of replication 0: the same random draws,
    so the same trajectory, as `simulate` makes, up to max_events events."""
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

        _run_replication(_TransitionTable(model), config, 0, log)


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
    rows, cols, vals = [], [], []
    reward = np.zeros(size)
    for n in range(N_cap + 1):
        for k in range(m):
            row = generator_row(model, (n, k))
            i = n * m + k
            trans = [((nn, kk), rate) for (nn, kk), rate in row.transitions if nn <= N_cap]
            total = sum(rate for _, rate in trans)
            if total <= 0.0:
                raise ZeroExitRate(f"truncated state ({n}, {k}) is absorbing")
            for (nn, kk), rate in trans:
                rows.append(i)
                cols.append(nn * m + kk)
                vals.append(rate / total)
                if nn == n - 1:
                    reward[i] += rate / total
    from scipy import sparse

    P = sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
    history = np.zeros((horizon + 1, size))
    v = np.zeros(size)
    for j in range(1, horizon + 1):
        v = reward + P @ v
        history[j] = v
    return DepartureValueTable(
        horizon=horizon,
        N_cap=N_cap,
        values=v.reshape(N_cap + 1, m),
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
    N_cap = table.N_cap
    violations = []
    safe = N_cap - table.horizon
    for m_ in range(N_cap + 1):
        for k in range(v.shape[1]):
            for dm, dk in ((1, 0), (0, 1)):
                m2, k2 = m_ + dm, k + dk
                if m2 > N_cap or k2 >= v.shape[1]:
                    continue
                gap = v[m_, k] - v[m2, k2]
                if gap > atol:
                    violations.append(((m_, k), (m2, k2), float(gap), m_ > safe or m2 > safe))
    return IsotoneReport(isotone=not violations, violations=tuple(violations))
