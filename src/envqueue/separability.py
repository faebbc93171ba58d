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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import EnvqueueError, JointModel, _balance_residual, _blocks, _level_classes, _strong_components

RESIDUAL_RTOL = 1e-10
SUMMABLE_MARGIN = 1e-12
NEAR_CRITICAL = 1e-9


class SingularSolve(EnvqueueError):
    """Elimination breakdown while solving for a stationary vector."""


def gth_stationary(Q: np.ndarray) -> np.ndarray:
    """Stationary probability vector of an irreducible generator matrix by
    GTH (state censoring) elimination; uses no subtraction of like-signed
    quantities, so it is accurate to round-off.  The back substitution
    rescales its partial vector before it can overflow, as it does when the
    stationary probabilities span more than ~300 decades."""
    A = np.array(Q, dtype=float)
    m = A.shape[0]
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
        if x[j] > 1e250:
            x[: j + 1] /= x[j]
    x /= x.sum()
    if not np.isfinite(x).all():
        raise SingularSolve("stationary vector is not finite")
    return x


def _residual_tol(B: np.ndarray) -> float:
    """The largest theta or balance residual that passes: `RESIDUAL_RTOL` times the
    largest total exit rate (-min of the B diagonals), whatever the time unit."""
    return RESIDUAL_RTOL * -float(np.diagonal(B, axis1=1, axis2=2).min())


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


def solve_theta(model: JointModel, B: np.ndarray | None = None):
    """Find a probability vector solving theta * Qred(n) = 0 for every
    representative level, or report the best-failing candidate.  `B` is the
    stack of representative local blocks, which set the residual tolerance;
    they are built here unless the caller has them.

    Each closed communicating class of Qred(0) contributes one extreme
    stationary vector, and each is tried.  Where Qred(0) has more than one, a
    common theta may mix them; it is also stationary for the sum of Qred(n)
    over the representative levels, and unique on each closed class of that
    sum, so the candidates come from the sum's closed classes instead.
    """
    Qs = [reduced_generator(model, n) for n in model.representative_levels()]
    Q = Qs[0]
    classes = _closed_classes(Q)
    if len(classes) > 1:
        Q = sum(Qs)
        classes = _closed_classes(Q)
    # Q's off-diagonal entries are >= 0, so a sink of its strong components is a closed class
    candidates = []
    for members in classes:
        theta = np.zeros(model.n_env)
        theta[members] = gth_stationary(Q[np.ix_(members, members)])
        candidates.append(theta)
    best = None
    for theta in candidates:
        res = [float(np.abs(theta @ Qn).max()) for Qn in Qs]
        worst_n = int(np.argmax(res))  # the first level of the largest residual
        if best is None or res[worst_n] < best[0]:
            best = (res[worst_n], worst_n, theta)
    worst, worst_n, theta = best
    if B is None:
        B = _blocks(model)[0]
    if worst <= _residual_tol(B):
        return ThetaSolution(theta=theta, residual=worst)
    return NoCommonSolution(residual=worst, offending_level=worst_n)


@dataclass(frozen=True)
class QueueMarginal:
    """Isolated birth-death marginal xi(n) with closed-form normalization."""

    summable: bool
    tail_ratio: float  # r, the product of lambda/mu over one tail period
    C: float | None
    weights: np.ndarray  # weight(0..N0+p), read-only
    period: int

    def weight(self, n: int) -> float:
        """Unnormalized product prod_{i<n} lambda(i)/mu(i+1): stored up to
        N0 + p, beyond it a stored tail weight times r per tail period."""
        w, p = self.weights, self.period
        if n < 0:
            raise IndexError(f"position {n} is negative")
        if n < len(w):
            return float(w[n])
        N0 = len(w) - 1 - p
        return float(w[N0 + (n - N0) % p]) * self.tail_ratio ** ((n - N0) // p)

    def xi(self, n: int) -> float:
        if not self.summable:
            raise ValueError("queue marginal is not summable")
        return self.weight(n) / self.C


def queue_marginal(model: JointModel) -> QueueMarginal:
    """Summability check and normalization of the isolated queue marginal:
    C sums the prefix weights and, geometrically, the tail blocks."""
    N0, p = model.tail_start, model.period
    steps = [model.arrival(i) / model.service(i + 1) for i in range(N0 + p)]
    w = np.cumprod([1.0] + steps)
    w.setflags(write=False)
    ratio = math.prod(steps[N0:])
    if abs(ratio - 1.0) < NEAR_CRITICAL:
        warnings.warn(f"tail ratio {ratio} is nearly critical", RuntimeWarning, stacklevel=2)
    summable = ratio < 1.0 - SUMMABLE_MARGIN
    C = sum(w[:N0].tolist()) + sum(w[N0:-1].tolist()) / (1.0 - ratio) if summable else None
    return QueueMarginal(summable=summable, tail_ratio=ratio, C=C, weights=w, period=p)


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
        r, p = self.marginal.tail_ratio, self.marginal.period
        xi = self.marginal.weights / self.C
        T0 = len(xi) - p
        extra = p * r / (1.0 - r) ** 2 * float(xi[T0:].sum())
        xi[T0:] /= 1.0 - r
        return np.arange(len(xi)), np.outer(xi, self.theta), extra


@dataclass(frozen=True)
class NotSeparable:
    reason: str  # NotSummable | NoCommonSolution | BalanceResidual
    residual: float = float("nan")
    tail_ratio: float = float("nan")
    offending_level: int | None = None
    separable: bool = False


def product_form(model: JointModel):
    """Full separability decision: returns a `ProductFormResult` with the
    exact steady state, or `NotSeparable` with the failure reason."""
    marginal = queue_marginal(model)
    if not marginal.summable:
        return NotSeparable(reason="NotSummable", tail_ratio=marginal.tail_ratio)
    B, U, D = _blocks(model)
    theta_res = solve_theta(model, B)
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
    worst, worst_level = _balance_residual(pi, B, U, D, _level_classes(model, np.arange(rows + 1)), rows)
    if worst > _residual_tol(B):
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


def separability_report(model: JointModel) -> dict:
    """Flat record for serialization: {separable, theta, C, residuals,
    tail_ratio, reason}."""
    result = product_form(model)
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
