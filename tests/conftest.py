"""Shared fixtures and model builders for the test suite."""

import math
import os
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from envqueue import ergodicity
from envqueue.bounds import departure_values
from envqueue.catalog import base_stock, catalog, mm1_plain, perishable_o
from envqueue.model import EnvironmentSpec, JointModel, RateFamily, _capped_classes, _level_classes
from envqueue.simulate import WARMUP


@pytest.fixture
def bs_model():
    """Base-stock reference model (lam=1, mu=2, nu=1, b=2)."""
    return base_stock(lam=1.0, mu=2.0, nu=1.0, b=2)


@pytest.fixture
def mm1_model():
    return mm1_plain(lam=1.0, mu=2.0)


@pytest.fixture
def per_o_b2():
    return perishable_o(lam=1.0, mu=2.0, nu=1.0, gamma=1.0, b=2)


def two_state_model(lam=1.0, mu=2.0, a=1.0, c=1.0, blocked=(0,)):
    """Minimal hand-checkable two-state environment with V = [[-a, a], [c, -c]]
    and identity jump matrices."""
    V = np.array([[-a, a], [c, -c]])
    env = EnvironmentSpec.constant(labels=(0, 1), blocked=blocked, V=V, R=np.eye(2))
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name="two_state")


def period_two_model():
    """Non-separable model with a two-level prefix and a period-2 tail."""
    rng = np.random.default_rng(4)

    def rand_V():
        V = rng.uniform(0.2, 2.0, size=(3, 3))
        np.fill_diagonal(V, 0.0)
        np.fill_diagonal(V, -V.sum(axis=1))
        return V

    def rand_R():
        R = rng.uniform(0.1, 1.0, size=(3, 3))
        return R / R.sum(axis=1, keepdims=True)

    rates = RateFamily(lambda_prefix=(2.0, 0.5), mu_prefix=(1.0, 3.0), lambda_tail=(1.5, 0.5), mu_tail=(2.0, 1.5))
    env = EnvironmentSpec(
        labels=("a", "b", "c"),
        blocked=frozenset(("a",)),
        V_prefix=(rand_V(), rand_V()),
        R_prefix=(rand_R(), rand_R()),
        V_tail=(rand_V(), rand_V()),
        R_tail=(rand_R(), rand_R()),
    )
    return JointModel(rates=rates, env=env, name="period_two")


def skewed_period_two_model():
    """Period-2 model with a blocked state b: on the tail the environment moves
    from w into b only at one position, and a service completion jumps from w
    into b only at the other.  The tail's levels alternate xi by a factor 100
    or more, and a light prefix level, where w enters b slowly, keeps P(W)
    near 1; the tail ratio is 0.9."""
    def V(into):
        return np.array([[-0.5, 0.5], [into, -into]])

    def R(jump):
        return np.array([[1.0, 0.0], [jump, 1.0 - jump]])

    rates = RateFamily(lambda_prefix=(1e-6,), mu_prefix=(1.0,), lambda_tail=(0.01, 90.0), mu_tail=(1.0, 1.0))
    env = EnvironmentSpec(labels=("b", "w"), blocked=frozenset("b"), V_prefix=(V(1e-3),), R_prefix=(np.eye(2),),
                          V_tail=(V(0.5), V(0.0)), R_tail=(R(0.0), R(0.5)))
    return JointModel(rates=rates, env=env, name="skewed_period_two")


def separable_period_two_model(rho):
    """Separable model with a two-level prefix and a period-2 tail whose tail
    ratio is rho: identity jump matrices and every V_n a multiple of one
    generator, so theta is that generator's stationary vector."""
    V = np.array([[-1.0, 0.6, 0.4], [0.5, -0.9, 0.4], [0.3, 0.7, -1.0]])
    I = np.eye(3)
    rates = RateFamily(lambda_prefix=(2.0, 0.5), mu_prefix=(1.0, 3.0), lambda_tail=(1.5 * rho, 0.5),
                       mu_tail=(1.0, 0.75))
    env = EnvironmentSpec(labels=("a", "b", "c"), blocked=frozenset(("a",)), V_prefix=(2.0 * V, 0.5 * V),
                          R_prefix=(I, I), V_tail=(V, 3.0 * V), R_tail=(I, I))
    return JointModel(rates=rates, env=env, name="separable_period_two")


def reference_blocks(model, N=None):
    """B, U, D of levels 0..T0+p-1 (T0 = tail_start + 1), stacked, then of the
    capped level N without its arrivals if N is given, built straight from the
    model's V, R, lambda and mu: the dense reference for `model._blocks`, which
    places them from the padded move rows.

    B_n carries environment moves plus the conservative diagonal; U_n the
    arrivals; D_n the service completions with jump matrix.  Each level is
    written in place into the preallocated stacks."""
    levels = range(model.tail_start + 1 + model.period)
    ns = [*levels, *([] if N is None else [N])]
    m = model.n_env
    working = model.env.working_mask()
    w, diag = np.flatnonzero(working), np.arange(m)
    B, U, D = (np.zeros((len(ns), m, m)) for _ in range(3))
    for i, n in enumerate(ns):
        if i < len(levels):
            U[i, w, w] = model.arrival(n)
        if n > 0:
            np.multiply(working[:, None], model.R(n), out=D[i])
            D[i] *= model.service(n)
        B[i] = model.V(n)
        B[i, diag, diag] = 0.0
        B[i, diag, diag] -= U[i].sum(axis=1) + D[i].sum(axis=1) + B[i].sum(axis=1)
    return B, U, D


def truncated_generator(model, N):
    """Dense generator of the chain capped at N, state index n * |K| + k,
    assembled from `reference_blocks`: the reference for the blockwise code."""
    B, U, D = reference_blocks(model, N)
    cls = _capped_classes(model, N)
    m = model.n_env
    Q = np.zeros(((N + 1) * m, (N + 1) * m))
    for n, c in enumerate(cls):
        level = slice(n * m, (n + 1) * m)
        Q[level, level] = B[c]
        if n < N:
            Q[level, (n + 1) * m:(n + 2) * m] = U[c]
        if n > 0:
            Q[level, (n - 1) * m:n * m] = D[c]
    return Q


def dense_move_rates(B, U, D):
    """Row k of [U | D | off-diagonal B], for one level's blocks or stacked
    ones: entry j is the rate of the move into environment j % |K| with queue
    change (1, -1, 0)[j // |K|].  The dense reference for `LevelMoves`."""
    return np.concatenate([U, D, B * (1.0 - np.eye(B.shape[-1]))], axis=-1)


def dense_drift(model, values):
    """`ergodicity._drift` from dense `dense_move_rates` rows: every column is
    summed, zeros included, and level 0's values stand in for level -1."""
    checked = np.arange(len(values) - 1)
    here = values[:-1]
    targets = np.concatenate([values[1:], values[np.maximum(checked - 1, 0)], here], axis=1)
    rates = dense_move_rates(*reference_blocks(model))[_level_classes(model, checked)]
    drift = np.cumsum(rates * (targets[:, None, :] - here[:, :, None]), axis=2)[:, :, -1]
    slack = ergodicity.SLACK_RTOL * (rates * (np.abs(targets)[:, None, :] + np.abs(here)[:, :, None])).sum(axis=2)
    return drift, slack


def certify_outcome(result):
    """What `certify` decides: the verdict and, for a certificate, its record
    and worst margin, else the reason, detail and violating state."""
    if result.certified:
        return True, result.to_record(), result.worst_margin
    return False, result.reason, result.detail, result.violating_state


def check_certify_against_dense(model, kind):
    """`certify`'s outcome equals that of a run whose drift comes from dense rows."""
    sparse = certify_outcome(ergodicity.certify(model, kind))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ergodicity, "_drift", dense_drift)
        dense = certify_outcome(ergodicity.certify(model, kind))
    assert sparse == dense


def poisson_oracle(lam, gamma, nu, b):
    """perishable_o at mu = gamma: its stock is a Markov chain on its own, with stationary law
    theta(k) ~ (nu/gamma)^k / k! on 0..b, so TH = lam (1 - theta(0)); returns (TH, theta(0))."""
    weights = [(nu / gamma) ** k / math.factorial(k) for k in range(b + 1)]
    theta0 = weights[0] / math.fsum(weights)
    return lam * (1.0 - theta0), theta0


def value_history(model, N_cap, horizon):
    """The tables v_0 .. v_horizon of `departure_values`, one call per horizon."""
    return np.stack([departure_values(model, N_cap, j).values for j in range(horizon + 1)])


def traced_peak(fn, *args):
    """Peak bytes traced while `fn(*args)` runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_forks(monkeypatch):
    """A list that gets one entry per `os.fork` call."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def stream_key(seed, rep):
    """Replication `rep`'s Philox key: the index, then one 64-bit hash of the seed."""
    return np.array([rep, SeedSequence(seed).generate_state(1, np.uint64)[0]], np.uint64)


def reference_replication(table, seed, horizon, rep, path=None):
    """(departure rate after the warm-up, jumps, departures) of replication `rep`: the
    jump loop on a fresh `Generator(Philox(key=stream_key(seed, rep)))`, read 512
    standard exponentials then 512 uniforms at a time, with a test of the warm-up at
    every departure and the class fold at every level change.  With `path`, each
    jump's (time, queue change) is appended to it."""
    rng = Generator(Philox(key=stream_key(seed, rep)))
    warmup_time = WARMUP * horizon
    levels, base, p = table.levels, table.base, table.p
    n, k = 0, 0
    level = levels[0]
    t = 0.0
    departures = 0
    jumps = 0
    while True:
        draws = zip(rng.standard_exponential(512).tolist(), rng.random(512).tolist())
        for e, pick in draws:
            total, cum, moves = level[k]
            t_next = t + e / total
            if t_next > horizon:
                jumps += 512 - 1 - sum(1 for _ in draws)
                return departures / (horizon - warmup_time), jumps, departures
            t = t_next
            dn, k = moves[bisect_left(cum, pick)]
            if path is not None:
                path.append((t, dn))
            if dn:
                if dn < 0 and t >= warmup_time:
                    departures += 1
                n += dn
                level = levels[n if n < base else base + (n - base) % p]
        jumps += 512


def reference_simulate(table, config):
    """(per_replication, total_jumps, total_departures) of `reference_replication`."""
    runs = [reference_replication(table, config.seed, config.horizon, rep) for rep in range(config.replications)]
    return tuple(rate for rate, _, _ in runs), sum(j for _, j, _ in runs), sum(d for _, _, d in runs)
