"""Separability analysis: reduced environment generators, the common
stationary vector theta, summability of the queue marginal, and assembly of
the product-form steady state pi(n, k) = xi(n) * theta(k).

The joint chain is separable iff a single probability vector theta solves
theta * Qred(n) = 0 for every n, where Qred(n) combines the service-triggered
environment jumps (weighted by lambda(n)) with the continuous environment
moves, and the isolated queue marginal is summable.  By the eventually
periodic tail discipline the all-n condition reduces to the representative
levels {0, ..., N0* + p* - 1}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (EnvqueueError, JointModel, _balance_residual, _level_classes, _representative_blocks,
                    _strong_components)

DEFAULT_TOL = 1e-10
SUMMABLE_MARGIN = 1e-12
NEAR_CRITICAL = 1e-9


class SingularSolve(EnvqueueError):
    """Elimination breakdown while solving for a stationary vector."""


def gth_stationary(Q: np.ndarray) -> np.ndarray:
    """Stationary probability vector of an irreducible generator matrix by
    GTH (state censoring) elimination; uses no subtraction of like-signed
    quantities, so it is accurate to round-off."""
    A = np.array(Q, dtype=float)
    m = A.shape[0]
    if m == 1:
        return np.ones(1)
    np.fill_diagonal(A, 0.0)
    for j in range(m - 1, 0, -1):
        s = A[j, :j].sum()
        if s <= 0.0:
            raise SingularSolve(f"no exit below state {j}: chain not irreducible")
        A[:j, :j] += np.outer(A[:j, j], A[j, :j]) / s
    x = np.zeros(m)
    x[0] = 1.0
    for j in range(1, m):
        s = A[j, :j].sum()
        x[j] = x[:j] @ A[:j, j] / s
    return x / x.sum()


def _closed_classes(Q: np.ndarray):
    """Indices of the closed communicating classes of a generator matrix."""
    off = Q - np.diag(np.diag(Q))
    comp = _strong_components(*np.nonzero(off > 0), Q.shape[0])
    closed = []
    for c in range(comp.max() + 1):
        inside = comp == c
        if off[inside][:, ~inside].sum() == 0.0:
            closed.append(np.flatnonzero(inside))
    return closed


def reduced_generator(model: JointModel, n: int) -> np.ndarray:
    """Environment-space generator at level n whose common stationary vector
    characterizes separability: off-diagonal (k, m) entry is
    lambda(n) * R_{n+1}(k, m) * 1{k working} + v_n(k, m)."""
    m = model.n_env
    working = model.env.working_mask()
    lam = model.arrival(n)
    Q = model.V(n) - np.diag(np.diag(model.V(n)))
    Q = Q + lam * (working[:, None] * model.R(n + 1))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


@dataclass(frozen=True)
class ThetaSolution:
    theta: np.ndarray
    residual: float  # max over representative levels of ||theta . Qred(n)||_inf
    found: bool = True


@dataclass(frozen=True)
class NoCommonSolution:
    residual: float  # best residual among candidate stationary vectors
    offending_level: int
    found: bool = False


def solve_theta(model: JointModel, tol: float = DEFAULT_TOL):
    """Find a probability vector solving theta * Qred(n) = 0 for every
    representative level, or report the best-failing candidate.

    If Qred(0) is reducible, every closed communicating class contributes one
    extreme stationary vector and each is tried.
    """
    Q0 = reduced_generator(model, 0)
    candidates = []
    for members in _closed_classes(Q0):
        theta = np.zeros(model.n_env)
        theta[members] = gth_stationary(Q0[np.ix_(members, members)])
        candidates.append(theta)
    if not candidates:
        raise SingularSolve("reduced generator at level 0 has no closed class")
    best = None
    for theta in candidates:
        worst = 0.0
        worst_n = 0
        for n in model.representative_levels():
            res = float(np.abs(theta @ reduced_generator(model, n)).max())
            if res > worst:
                worst, worst_n = res, n
        if best is None or worst < best[0]:
            best = (worst, worst_n, theta)
    worst, worst_n, theta = best
    if worst <= tol:
        return ThetaSolution(theta=theta, residual=worst)
    return NoCommonSolution(residual=worst, offending_level=worst_n)


@dataclass(frozen=True)
class QueueMarginal:
    """Isolated birth-death marginal xi(n) with closed-form normalization."""

    summable: bool
    tail_ratio: float  # product of lambda/mu over one tail period
    C: float | None
    model: JointModel

    def weight(self, n: int) -> float:
        """Unnormalized product prod_{i<n} lambda(i)/mu(i+1)."""
        N0, p = self.model.tail_start, self.model.period
        if n <= N0 + p:
            w = 1.0
            for i in range(n):
                w *= self.model.arrival(i) / self.model.service(i + 1)
            return w
        base = N0 + (n - N0) % p
        blocks = (n - N0) // p
        return self.weight(base) * self.tail_ratio**blocks

    def xi(self, n: int) -> float:
        if not self.summable:
            raise ValueError("queue marginal is not summable")
        return self.weight(n) / self.C

    def series(self, f) -> float:
        """Closed-form sum_{n>=0} weight(n) * f(n) for f eventually periodic
        with the model's tail discipline (tail blocks summed geometrically)."""
        if not self.summable:
            raise ValueError("queue marginal is not summable")
        N0, p = self.model.tail_start, self.model.period
        head = sum(self.weight(n) * f(n) for n in range(N0))
        block = sum(self.weight(N0 + j) * f(N0 + j) for j in range(p))
        return head + block / (1.0 - self.tail_ratio)


def queue_marginal(model: JointModel) -> QueueMarginal:
    """Summability check and normalization of the isolated queue marginal."""
    N0, p = model.tail_start, model.period
    ratio = 1.0
    for j in range(p):
        ratio *= model.arrival(N0 + j) / model.service(N0 + j + 1)
    if abs(ratio - 1.0) < NEAR_CRITICAL:
        warnings.warn(f"tail ratio {ratio} is nearly critical", RuntimeWarning, stacklevel=2)
    marginal = QueueMarginal(summable=ratio < 1.0 - SUMMABLE_MARGIN, tail_ratio=ratio, C=None, model=model)
    if not marginal.summable:
        return marginal
    C = marginal.series(lambda n: 1.0)
    return QueueMarginal(summable=True, tail_ratio=ratio, C=C, model=model)


@dataclass(frozen=True)
class ProductFormResult:
    theta: np.ndarray
    C: float
    marginal: QueueMarginal
    theta_residual: float
    balance_residual: float
    separable: bool = True

    def xi(self, n: int) -> float:
        return self.marginal.xi(n)

    def pi(self, n: int, k: int) -> float:
        return self.xi(n) * self.theta[k]

    def level_vector(self, n: int) -> np.ndarray:
        return self.xi(n) * self.theta

    def level_sums(self):
        """As `GeometricTail.level_sums`, the tail starting at T0 = tail_start + 1,
        where mu(n) turns periodic: tail row i sums xi(T0 + i + j p) theta =
        xi(T0 + i) r^j theta over j >= 0, for the tail ratio r."""
        model, r = self.marginal.model, self.marginal.tail_ratio
        T0, p = model.tail_start + 1, model.period
        xi = np.array([self.xi(n) for n in range(T0 + p)])
        extra = p * r / (1.0 - r) ** 2 * float(xi[T0:].sum())
        xi[T0:] /= 1.0 - r
        return np.arange(T0 + p), np.outer(xi, self.theta), extra


@dataclass(frozen=True)
class NotSeparable:
    reason: str  # NotSummable | NoCommonSolution | BalanceResidual
    residual: float = float("nan")
    tail_ratio: float = float("nan")
    offending_level: int | None = None
    separable: bool = False


def product_form(model: JointModel, tol: float = DEFAULT_TOL):
    """Full separability decision: returns a `ProductFormResult` with the
    exact steady state, or `NotSeparable` with the failure reason."""
    marginal = queue_marginal(model)
    if not marginal.summable:
        return NotSeparable(reason="NotSummable", tail_ratio=marginal.tail_ratio)
    theta_res = solve_theta(model, tol=tol)
    if not theta_res.found:
        return NotSeparable(
            reason="NoCommonSolution",
            residual=theta_res.residual,
            tail_ratio=marginal.tail_ratio,
            offending_level=theta_res.offending_level,
        )
    theta = theta_res.theta
    # global balance of pi_n = xi(n) theta on levels 0..rows-1; level rows
    # feeds the down flow into the last of them
    rows = model.tail_start + model.period + 3
    pi = np.outer([marginal.xi(n) for n in range(rows + 1)], theta)
    B, U, D = _representative_blocks(model)
    worst, worst_level = _balance_residual(pi, B, U, D, _level_classes(model, np.arange(rows + 1)), rows)
    if worst > tol:
        return NotSeparable(
            reason="BalanceResidual",
            residual=worst,
            tail_ratio=marginal.tail_ratio,
            offending_level=worst_level,
        )
    return ProductFormResult(
        theta=theta,
        C=marginal.C,
        marginal=marginal,
        theta_residual=theta_res.residual,
        balance_residual=worst,
    )


def separability_report(model: JointModel, tol: float = DEFAULT_TOL) -> dict:
    """Flat record for serialization: {separable, theta, C, residuals,
    tail_ratio, reason}."""
    result = product_form(model, tol=tol)
    if result.separable:
        return {
            "separable": True,
            "theta": [float(t) for t in result.theta],
            "C": result.C,
            "residuals": {
                "theta": result.theta_residual,
                "balance": result.balance_residual,
            },
            "tail_ratio": result.marginal.tail_ratio,
            "reason": None,
        }
    return {
        "separable": False,
        "theta": None,
        "C": None,
        "residuals": {"worst": None if np.isnan(result.residual) else result.residual},
        "tail_ratio": result.tail_ratio,
        "reason": result.reason,
    }
