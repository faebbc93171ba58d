"""Separability analysis: reduced environment generators, the common
stationary vector theta, summability of the queue marginal, and assembly of
the product-form steady state pi(n, k) = xi(n) * theta(k).

The joint chain is separable iff a single probability vector theta solves
theta * Qred(n) = 0 for every n, where Qred(n) combines the service-triggered
environment jumps (weighted by lambda(n)) with the continuous environment
moves, and the isolated queue marginal is summable.  By the eventually
periodic tail discipline the all-n condition reduces to the representative
levels {0, ..., N0* + p* - 1}.  `product_form` answers only a chain with
one closed class, as `reachability`, the one reachability verdict every
command reads, decides it: elsewhere xi theta is one stationary law of
several.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (EnvqueueError, JointModel, _balance_residual, _blocks, _boundary_levels, _example, _level_classes,
                    _level_graph, _strong_components, _tail_qbd)

RESIDUAL_RTOL = 1e-10


class SingularSolve(EnvqueueError):
    """Elimination breakdown while solving for a stationary vector."""


def gth_stationary(Q: np.ndarray) -> np.ndarray:
    """Stationary probability vector of an irreducible generator matrix by
    GTH (state censoring) elimination; uses no subtraction of like-signed
    quantities, so it is accurate to round-off.  The back substitution
    rescales its partial vector before it can overflow, as it does when the
    stationary probabilities span more than ~300 decades.  Eliminating state
    j updates only the box from the first state that enters j and the first
    that j enters: outside it a term has a zero factor, so a banded Q costs
    O(m^2) and every value is the one the full update gives."""
    A = np.array(Q, dtype=float)
    m = A.shape[0]
    np.fill_diagonal(A, 0.0)
    exits = [0.0] * m  # exits[j]: state j's rate into states below it, once j is eliminated
    for j in range(m - 1, 0, -1):
        row, col = A[j, :j], A[:j, j]
        s = exits[j] = row.sum()
        if s <= 0.0:
            raise SingularSolve(f"no exit below state {j}: chain not irreducible")
        enter, leave = col.nonzero()[0], row.nonzero()[0]
        if enter.size:
            A[enter[0] : j, leave[0] : j] += np.outer(col[enter[0] :], row[leave[0] :]) / s
    x = np.zeros(m)
    x[0] = 1.0
    for j in range(1, m):
        x[j] = x[:j] @ A[:j, j] / exits[j]
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
    comp, closed = _level_graph([Q], [], [])
    return [np.flatnonzero(comp == c) for c in np.flatnonzero(closed)]


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

    summable: bool  # r < 1, decided on the exact r
    tail_ratio: float  # r, the product of lambda/mu over one tail period, rounded once
    gap: float  # 1 - r, rounded once
    C: float | None
    weights: np.ndarray  # weight(0..N0+p), read-only
    period: int
    verdict: tuple[str, str] | None  # (reason, why) the joint chain is not ergodic, or None where it may be

    def weight(self, n):
        """Unnormalized product prod_{i<n} lambda(i)/mu(i+1) at level n, or at
        each level of an array: stored up to N0 + p, beyond it a stored tail
        weight times r per tail period."""
        levels = np.atleast_1d(n)  # a level alone goes through the array power too, for the same bits
        w, p = self.weights, self.period
        if levels.min(initial=0) < 0:
            raise IndexError(f"position {levels.min()} is negative")
        N0 = len(w) - 1 - p
        past = np.where(levels < len(w), 0, levels - N0)  # levels past the stored weights, counted from N0
        out = w[np.where(levels < len(w), levels, N0 + past % p)] * self.tail_ratio ** (past // p)
        return out if np.ndim(n) else float(out[0])

    def xi(self, n):
        if not self.summable:
            raise ValueError("queue marginal is not summable")
        return self.weight(n) / self.C

    def mass_above(self, n):
        """xi's mass on the levels above level n, or above each level of an
        array, in closed form: from N0 on the weights fall by r per period, so
        the levels above n >= N0 - 1 hold (xi(n+1) + ... + xi(n+p)) / (1 - r)."""
        n = np.asarray(n)
        N0, p = len(self.weights) - 1 - self.period, self.period
        last = np.maximum(n, N0 - 1)
        # prefix[j]: the mass of prefix levels j..N0-1, and 0 at j = N0
        prefix = np.append(np.cumsum(self.xi(np.arange(N0))[::-1])[::-1], 0.0)
        tail = sum(self.xi(last + i) for i in range(1, p + 1)) / self.gap
        return tail + prefix[np.minimum(n + 1, N0)]


def queue_marginal(model: JointModel) -> QueueMarginal:
    """Summability check and normalization of the isolated queue marginal:
    C sums the prefix weights and, geometrically, the tail blocks.  The
    ergodicity verdict that every command reads is decided here, once."""
    N0, p = model.tail_start, model.period
    rates = [(model.arrival(i), model.service(i + 1)) for i in range(N0 + p)]
    w = np.cumprod([1.0] + [lam / mu for lam, mu in rates])
    w.setflags(write=False)
    num = den = 1  # r = num / den exactly, every float being a dyadic rational
    for (a, b), (c, d) in (map(float.as_integer_ratio, pair) for pair in rates[N0:]):
        num, den = num * a * d, den * b * c
    summable = num < den  # r = 1 is null recurrent
    try:
        ratio, gap = num / den, (den - num) / den  # integer division rounds once
    except OverflowError:  # r beyond the float range
        ratio, gap = math.inf, -math.inf
    C = sum(w[:N0].tolist()) + sum(w[N0:-1].tolist()) / gap if summable else None
    verdict = (("NoWorkingState", "no environment state is working") if not model.env.working_mask().any() else
               None if summable else ("NotSummable", f"queue tail ratio {ratio} is not below 1"))
    return QueueMarginal(summable=summable, tail_ratio=ratio, gap=gap, C=C, weights=w, period=p, verdict=verdict)


def _reaches(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean product of a and b: i reaches j by a step of a, then one of b."""
    return a.astype(float) @ b > 0.0


def _one_component(Q: np.ndarray) -> bool:
    """Whether every state of generator Q reaches every other (Q > 0 only off the diagonal)."""
    return not _strong_components(*np.nonzero(Q > 0), len(Q)).any()


def reachability(model: JointModel, blocks=None) -> tuple[str, str] | None:
    """Whether the joint chain is irreducible (None), has one closed class ("TransientStates") or several
    ("SeveralClosedClasses"), with no truncation: the verdict every command reads, a (reason, detail) pair as
    `QueueMarginal.verdict` is (README, "Reachability", has the argument).  `blocks` are `_blocks(model)`, built
    here where needed unless the caller has them.  Where a state works and every Qred(n) is one strong component,
    the chain is irreducible.  Otherwise G, the least boolean solution of G = A2 + A1 G + A0 G G, decides it with
    the graph of levels 0..T0-1 and block level 0, which moves by A1 + A0 G."""
    if model.working_indices().size and all(_one_component(reduced_generator(model, n))
                                            for n in model.representative_levels()):
        return None
    T0, p, m = model.tail_start + 1, model.period, model.n_env
    B, U, D = _blocks(model) if blocks is None else blocks
    A0, A1, A2 = (a != 0.0 for a in _tail_qbd(model, B, U, D))
    G = np.zeros_like(A2)
    while not (G == (G := A2 | _reaches(A1, G) | _reaches(_reaches(A0, G), G))).all():
        pass
    comp, closed = _level_graph(*_boundary_levels(model, B, U, D, A1 | _reaches(A0, G)))
    classes, down = np.flatnonzero(closed), G.any(axis=1).all()
    if not down:  # the closed classes of blocked states alone
        classes = classes[np.bincount(comp, np.tile(model.env.working_mask(), T0 + p))[classes] == 0]
    if not down or len(classes) > 1:
        count = len(classes) if down else "infinitely many"
        detail = f"{count} closed classes; one holds {_example(model, comp, classes)}"
        return "SeveralClosedClasses", detail
    if not (transient := np.flatnonzero(comp != classes[0])).size:
        return None
    state = (int(transient[0]) // m, model.env.labels[transient[0] % m])
    return "TransientStates", f"one closed class; state {state} is outside it"


@dataclass(frozen=True)
class ProductFormResult:
    theta: np.ndarray
    C: float
    marginal: QueueMarginal
    theta_residual: float
    balance_residual: float
    irreducible: bool  # as `reachability` decides
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
        r, gap, p = self.marginal.tail_ratio, self.marginal.gap, self.marginal.period
        xi = self.marginal.weights / self.C
        T0 = len(xi) - p
        extra = p * r / gap**2 * float(xi[T0:].sum())
        xi[T0:] /= gap
        return np.arange(len(xi)), np.outer(xi, self.theta), extra


@dataclass(frozen=True)
class NotSeparable:
    reason: str  # NoWorkingState | NotSummable | SeveralClosedClasses | NoCommonSolution | BalanceResidual
    detail: str = ""  # why the chain is not ergodic, where the reason says it is not
    residual: float = float("nan")
    tail_ratio: float = float("nan")
    offending_level: int | None = None
    separable: bool = False


def product_form(model: JointModel, blocks=None):
    """Full separability decision: returns a `ProductFormResult` with the
    exact steady state, or `NotSeparable` with the failure reason.  `blocks`
    are `_blocks(model)`, built here unless the caller has them."""
    marginal = queue_marginal(model)
    if marginal.verdict:
        return NotSeparable(*marginal.verdict, tail_ratio=marginal.tail_ratio)
    B, U, D = blocks = _blocks(model) if blocks is None else blocks
    if (reach := reachability(model, blocks)) and reach[0] == "SeveralClosedClasses":  # xi theta is one law of several
        return NotSeparable(*reach, tail_ratio=marginal.tail_ratio)
    theta_res = solve_theta(model, B)
    if not theta_res.found:
        return NotSeparable(reason="NoCommonSolution", residual=theta_res.residual, tail_ratio=marginal.tail_ratio,
                            offending_level=theta_res.offending_level)
    theta = theta_res.theta
    # global balance of pi_n = xi(n) theta on levels 0..rows-1; level rows
    # feeds the down flow into the last of them
    rows = model.tail_start + model.period + 3
    pi = np.outer(marginal.xi(np.arange(rows + 1)), theta)
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
        irreducible=reach is None,
    )


def separability_report(model: JointModel) -> dict:
    """Flat record for serialization: {separable, theta, C, residuals,
    tail_ratio, reason}, and the reason's `detail` where it has one."""
    result = product_form(model)
    if result.separable:
        return {
            "separable": True,
            "theta": [float(t) for t in result.theta],
            "C": result.C,
            "residuals": {"theta": result.theta_residual, "balance": result.balance_residual},
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
        **({"detail": result.detail} if result.detail else {}),
    }
