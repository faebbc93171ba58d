"""Catalog of ready-made queueing-environment models.

Includes the plain M/M/1 queue, the base-stock queueing-inventory system with
lost sales, two on-off server availability variants with queue-length
dependent switching, and the perishable-inventory family with its three
ageing regimes ("minus": all k items age; "o": the item in production is
protected while the server is busy; "plus": one item is always protected).
"""

from __future__ import annotations

import inspect

import numpy as np

from .model import EnvironmentSpec, InvalidParam, JointModel, RateFamily


class UnknownModel(InvalidParam):
    pass


CATALOG_NAMES = (
    "mm1_plain",
    "base_stock",
    "onoff_a",
    "onoff_b",
    "perishable_o",
    "perishable_minus",
    "perishable_plus",
)


def _number(value) -> float:
    """`value` as a float; nan, which fails every check, where it is no number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _check_positive(**params) -> list:
    """The parameters as floats, each checked to be positive."""
    for name, value in params.items():
        if not _number(value) > 0:
            raise InvalidParam(f"parameter {name} must be a positive number, got {value}")
    return [float(value) for value in params.values()]


def _check_integer(value, least, name) -> int:
    level = _number(value)
    if not (level >= least and level.is_integer() and level == value):
        raise InvalidParam(f"{name} must be an integer >= {least}, got {value}")
    return int(level)


def _inventory_jump_matrix(b):
    """Service completion consumes one item: R(k, k-1) = 1, R(0, 0) = 1."""
    R = np.zeros((b + 1, b + 1))
    R[0, 0] = 1.0
    for k in range(1, b + 1):
        R[k, k - 1] = 1.0
    return R


def _inventory_generator(b, nu, downrates):
    """Replenishment at rate nu plus per-level decay rates down[k] (k -> k-1)."""
    V = np.zeros((b + 1, b + 1))
    for k in range(b):
        V[k, k + 1] = nu
    for k in range(1, b + 1):
        if downrates[k] > 0:
            V[k, k - 1] = downrates[k]
    np.fill_diagonal(V, -V.sum(axis=1))
    return V


def mm1_plain(lam, mu) -> JointModel:
    """Plain M/M/1: trivial one-state environment, never blocked."""
    lam, mu = _check_positive(lam=lam, mu=mu)
    env = EnvironmentSpec.constant(labels=(0,), blocked=(), V=np.zeros((1, 1)), R=np.ones((1, 1)))
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name="mm1_plain")


def base_stock(lam, mu, nu, b) -> JointModel:
    """Queue with attached inventory under base stock policy and lost sales.

    Environment state = stock on hand, 0..b; stock-out blocks the server.
    """
    lam, mu, nu = _check_positive(lam=lam, mu=mu, nu=nu)
    b = _check_integer(b, 1, "base stock level b")
    V = _inventory_generator(b, nu, np.zeros(b + 1))
    env = EnvironmentSpec.constant(
        labels=tuple(range(b + 1)), blocked=(0,), V=V, R=_inventory_jump_matrix(b)
    )
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name="base_stock")


_ONOFF_DEPTH = 8


def _onoff_generators(eta, gamma, depth):
    mats = []
    for n in range(depth + 1):
        scale = n + 1
        V = np.array(
            [[-eta * scale, eta * scale], [gamma * scale, -gamma * scale]], dtype=float
        )
        mats.append(V)
    return mats


def onoff_a(eta, gamma, lam=1.0, mu=2.0, depth=_ONOFF_DEPTH) -> JointModel:
    """Server with on-off availability, switching rates growing linearly with
    the queue length, and no jump coupling (identity jump matrices).

    Linear growth is represented exactly up to `depth` and frozen beyond it;
    the environment stationary vector is unaffected because scaling a
    generator does not change its kernel.
    """
    eta, gamma, lam, mu = _check_positive(eta=eta, gamma=gamma, lam=lam, mu=mu)
    depth = _check_integer(depth, 0, "on-off depth")
    mats = _onoff_generators(eta, gamma, depth)
    eye = np.eye(2)
    env = EnvironmentSpec(
        labels=(0, 1),
        blocked=frozenset((0,)),
        V_prefix=tuple(mats[:-1]),
        R_prefix=tuple(eye for _ in range(depth)),
        V_tail=(mats[-1],),
        R_tail=(eye,),
    )
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name="onoff_a")


def onoff_b(lam, gamma, eta, mu=2.0, depth=_ONOFF_DEPTH) -> JointModel:
    """On-off availability where every service completion while "on" switches
    the server off, with linear arrival rates lambda(n) = lam * (n + 1).

    Same freeze-beyond-depth representation as `onoff_a`.
    """
    lam, gamma, eta, mu = _check_positive(lam=lam, gamma=gamma, eta=eta, mu=mu)
    depth = _check_integer(depth, 0, "on-off depth")
    mats = _onoff_generators(eta, gamma, depth)
    R = np.array([[1.0, 0.0], [1.0, 0.0]])
    env = EnvironmentSpec(
        labels=(0, 1),
        blocked=frozenset((0,)),
        V_prefix=tuple(mats[:-1]),
        R_prefix=tuple(R for _ in range(depth)),
        V_tail=(mats[-1],),
        R_tail=(R,),
    )
    rates = RateFamily(
        lambda_prefix=tuple(lam * (n + 1) for n in range(depth)),
        mu_prefix=tuple(mu for _ in range(depth)),
        lambda_tail=(lam * (depth + 1),),
        mu_tail=(mu,),
    )
    return JointModel(rates=rates, env=env, name="onoff_b")


def _check_ageing(gamma) -> float:
    if not _number(gamma) >= 0:
        raise InvalidParam(f"ageing rate gamma must be a number >= 0, got {gamma}")
    return float(gamma)


def perishable_o(lam, mu, nu, gamma, b) -> JointModel:
    """Base-stock inventory with perishable items where the item in
    production is protected: total loss rate gamma*k at n = 0 and
    gamma*(k-1) at n > 0."""
    lam, mu, nu = _check_positive(lam=lam, mu=mu, nu=nu)
    gamma = _check_ageing(gamma)
    b = _check_integer(b, 1, "base stock level b")
    ks = np.arange(b + 1, dtype=float)
    V0 = _inventory_generator(b, nu, gamma * ks)
    Vn = _inventory_generator(b, nu, gamma * np.maximum(ks - 1, 0.0))
    R = _inventory_jump_matrix(b)
    env = EnvironmentSpec(
        labels=tuple(range(b + 1)),
        blocked=frozenset((0,)),
        V_prefix=(V0,),
        R_prefix=(R,),
        V_tail=(Vn,),
        R_tail=(R,),
    )
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name="perishable_o")


def _perishable_uniform(lam, mu, nu, gamma, b, decay, name) -> JointModel:
    lam, mu, nu = _check_positive(lam=lam, mu=mu, nu=nu)
    gamma = _check_ageing(gamma)
    b = _check_integer(b, 1, "base stock level b")
    V = _inventory_generator(b, nu, gamma * decay(np.arange(b + 1, dtype=float)))
    env = EnvironmentSpec.constant(
        labels=tuple(range(b + 1)), blocked=(0,), V=V, R=_inventory_jump_matrix(b)
    )
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name=name)


def perishable_minus(lam, mu, nu, gamma, b) -> JointModel:
    """Perishable inventory where all k items age (loss rate gamma*k at every
    queue length); lower-bound regime."""
    return _perishable_uniform(lam, mu, nu, gamma, b, lambda k: k, "perishable_minus")


def perishable_plus(lam, mu, nu, gamma, b) -> JointModel:
    """Perishable inventory where one item is always protected (loss rate
    gamma*(k-1)+ at every queue length); upper-bound regime."""
    return _perishable_uniform(
        lam, mu, nu, gamma, b, lambda k: np.maximum(k - 1.0, 0.0), "perishable_plus"
    )


_BUILDERS = {
    "mm1_plain": mm1_plain,
    "base_stock": base_stock,
    "onoff_a": onoff_a,
    "onoff_b": onoff_b,
    "perishable_o": perishable_o,
    "perishable_minus": perishable_minus,
    "perishable_plus": perishable_plus,
}


def catalog(name: str, **params) -> JointModel:
    """Build a catalog model by name; see `CATALOG_NAMES`."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownModel(f"unknown catalog model {name!r}; choose from {CATALOG_NAMES}") from None
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise InvalidParam(f"catalog model {name!r}: {exc}") from None
    return builder(**params)
