"""Shared fixtures and model builders for the test suite."""

import os
import tracemalloc

import numpy as np
import pytest

from envqueue import ergodicity
from envqueue.bounds import departure_values
from envqueue.catalog import base_stock, catalog, mm1_plain, perishable_o
from envqueue.model import EnvironmentSpec, JointModel, RateFamily, _capped_classes, _level_classes


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
    slack = ergodicity.DRIFT_RTOL * (rates * (np.abs(targets)[:, None, :] + np.abs(here)[:, :, None])).sum(axis=2)
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
