"""Shared fixtures and model builders for the test suite."""

import numpy as np
import pytest

from envqueue.catalog import base_stock, catalog, mm1_plain, perishable_o
from envqueue.model import EnvironmentSpec, JointModel, RateFamily, _level_blocks
from envqueue.simulate import departure_values


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


def truncated_generator(model, N):
    """Dense generator of the chain capped at N, state index n * |K| + k,
    assembled from the level blocks: the reference for the blockwise code."""
    B, U, D, cls = _level_blocks(model, N)
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


def value_history(model, N_cap, horizon):
    """The tables v_0 .. v_horizon of `departure_values`, one call per horizon."""
    return np.stack([departure_values(model, N_cap, j).values for j in range(horizon + 1)])
