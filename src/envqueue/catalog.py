"""Catalog of ready-made queueing-environment models.

Includes the plain M/M/1 queue, the base-stock queueing-inventory system with
lost sales, two on-off server availability variants with queue-length
dependent switching, and the perishable-inventory family with its three
ageing regimes, each a count of items protected from ageing at n = 0 and at
n > 0 ("minus": none; "o": none, then the item in production; "plus": one
always).  Base stock is the inventory without ageing.
"""

from __future__ import annotations

import inspect

import numpy as np

from .model import EnvironmentSpec, InvalidParam, JointModel, RateFamily


class UnknownModel(InvalidParam):
    pass


def _number(value) -> float:
    """`value` as a float; nan, which fails every check, where it is no number.
    A boolean (YAML's yes/no/on/off, JSON's true/false) is no number."""
    if isinstance(value, (bool, np.bool_)):
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _check_positive(**params) -> list:
    """The parameters as floats, each checked to be positive and finite."""
    for name, value in params.items():
        if not _number(value) > 0:
            raise InvalidParam(f"parameter {name} must be a positive number, got {value}")
        if _number(value) == np.inf:
            raise InvalidParam(f"parameter {name} must be finite, got {value}")
    return [float(value) for value in params.values()]


def _check_integer(value, least, name) -> int:
    level = _number(value)
    if not (level >= least and level.is_integer() and level == value):
        raise InvalidParam(f"{name} must be an integer >= {least}, got {value}")
    return int(level)


def mm1_plain(lam, mu) -> JointModel:
    """Plain M/M/1: trivial one-state environment, never blocked."""
    lam, mu = _check_positive(lam=lam, mu=mu)
    env = EnvironmentSpec.constant(labels=(0,), blocked=(), V=np.zeros((1, 1)), R=np.ones((1, 1)))
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name="mm1_plain")


def _inventory(name, lam, mu, nu, b, gamma, protected) -> JointModel:
    """Base-stock inventory with lost sales (Schwarz, Sauer, Daduna, Kulik &
    Szekli, Queueing Systems 54, 2006) whose items perish.

    Environment state = stock on hand, 0..b; stock-out blocks the server, a
    service completion consumes one item and replenishment adds one at rate
    nu.  At stock k items perish at gamma * max(k - p, 0), where p is the
    number of protected items: protected[0] at n = 0, protected[1] at n > 0.
    A level-0 prefix exists where the two counts differ.
    """
    lam, mu, nu = _check_positive(lam=lam, mu=mu, nu=nu)
    if not _number(gamma) >= 0:
        raise InvalidParam(f"ageing rate gamma must be a number >= 0, got {gamma}")
    if _number(gamma) == np.inf:
        raise InvalidParam(f"ageing rate gamma must be finite, got {gamma}")
    gamma = float(gamma)
    b = _check_integer(b, 1, "base stock level b")
    R = np.eye(b + 1, k=-1)  # a service completion consumes one item
    R[0, 0] = 1.0
    V = {}
    for p in set(protected):
        V[p] = np.zeros((b + 1, b + 1))
        np.fill_diagonal(V[p][:-1, 1:], nu)  # k -> k + 1
        np.fill_diagonal(V[p][p + 1:, p:-1], gamma * np.arange(1, b - p + 1))  # k -> k - 1 for k > p
        np.fill_diagonal(V[p], -V[p].sum(axis=1))
    prefix = () if protected[0] == protected[1] else (V[protected[0]],)
    env = EnvironmentSpec(
        labels=tuple(range(b + 1)),
        blocked=frozenset((0,)),
        V_prefix=prefix,
        R_prefix=(R,) * len(prefix),
        V_tail=(V[protected[1]],),
        R_tail=(R,),
    )
    return JointModel(rates=RateFamily.constant(lam, mu), env=env, name=name)


def base_stock(lam, mu, nu, b) -> JointModel:
    """Queue with attached inventory under base stock policy and lost sales:
    the inventory without ageing."""
    return _inventory("base_stock", lam, mu, nu, b, 0.0, (0, 0))


def perishable_o(lam, mu, nu, gamma, b) -> JointModel:
    """Perishable inventory where the item in production is protected: total
    loss rate gamma*k at n = 0 and gamma*(k-1) at n > 0."""
    return _inventory("perishable_o", lam, mu, nu, b, gamma, (0, 1))


def perishable_minus(lam, mu, nu, gamma, b) -> JointModel:
    """Perishable inventory where all k items age (loss rate gamma*k at every
    queue length); lower-bound regime."""
    return _inventory("perishable_minus", lam, mu, nu, b, gamma, (0, 0))


def perishable_plus(lam, mu, nu, gamma, b) -> JointModel:
    """Perishable inventory where one item is always protected (loss rate
    gamma*(k-1)+ at every queue length); upper-bound regime."""
    return _inventory("perishable_plus", lam, mu, nu, b, gamma, (1, 1))


_ONOFF_DEPTH = 8


def _onoff(name, eta, gamma, depth, R, rates) -> JointModel:
    """Server that is off (blocked) in state 0 and on in state 1, switching on
    at eta * (n + 1) and off at gamma * (n + 1) at queue length n, with jump
    matrix R and queue rates `rates`.

    Linear growth is represented exactly up to `depth` and frozen beyond it;
    the environment stationary vector is unaffected because scaling a
    generator does not change its kernel.
    """
    V = [np.array([[-eta * n, eta * n], [gamma * n, -gamma * n]]) for n in range(1, depth + 2)]
    env = EnvironmentSpec(
        labels=(0, 1),
        blocked=frozenset((0,)),
        V_prefix=tuple(V[:-1]),
        R_prefix=(R,) * depth,
        V_tail=(V[-1],),
        R_tail=(R,),
    )
    return JointModel(rates=rates, env=env, name=name)


def onoff_a(eta, gamma, lam=1.0, mu=2.0, depth=_ONOFF_DEPTH) -> JointModel:
    """On-off availability with switching rates growing linearly with the
    queue length, and no jump coupling (identity jump matrices)."""
    eta, gamma, lam, mu = _check_positive(eta=eta, gamma=gamma, lam=lam, mu=mu)
    depth = _check_integer(depth, 0, "on-off depth")
    return _onoff("onoff_a", eta, gamma, depth, np.eye(2), RateFamily.constant(lam, mu))


def onoff_b(lam, gamma, eta, mu=2.0, depth=_ONOFF_DEPTH) -> JointModel:
    """On-off availability where every service completion while "on" switches
    the server off, with linear arrival rates lambda(n) = lam * (n + 1)."""
    lam, gamma, eta, mu = _check_positive(lam=lam, gamma=gamma, eta=eta, mu=mu)
    depth = _check_integer(depth, 0, "on-off depth")
    rates = RateFamily(
        lambda_prefix=tuple(lam * (n + 1) for n in range(depth)),
        mu_prefix=(mu,) * depth,
        lambda_tail=(lam * (depth + 1),),
        mu_tail=(mu,),
    )
    return _onoff("onoff_b", eta, gamma, depth, np.array([[1.0, 0.0], [1.0, 0.0]]), rates)


_BUILDERS = {
    "mm1_plain": mm1_plain,
    "base_stock": base_stock,
    "onoff_a": onoff_a,
    "onoff_b": onoff_b,
    "perishable_o": perishable_o,
    "perishable_minus": perishable_minus,
    "perishable_plus": perishable_plus,
}
CATALOG_NAMES = tuple(_BUILDERS)


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
