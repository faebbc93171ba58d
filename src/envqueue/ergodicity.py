"""Ergodicity certification for non-separable models.

Pipeline: a necessary summability condition on the isolated queue, mean
first-entrance times tau_n from blocked environment states into the working
set, per-level constants c_hat(n) bounding the weighted passage times through
the blocked set, a Lyapunov function for the isolated queue, and the composed
certificate L(n, k) = L_tilde(n) + 1{k blocked} * c_n * tau_n(k) whose drift
is verified numerically on a horizon that covers all periodic representatives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import EnvqueueError, JointModel, _level_classes, _level_moves, _periodic, _representatives
from .model import generator_row  # noqa: F401  (perfbench/tracing.py counts calls through this name)
from .separability import queue_marginal, reachability

TAU_RESIDUAL_TOL = 1e-10
SLACK_RTOL = 1e-12  # a drift may exceed -eps by this times the sum of rate * (|L(target)| + |L(here)|)


class SingularSystem(EnvqueueError):
    """The blocked set contains states with no path to the working set."""


class AbsorptionTable(NamedTuple):
    """Mean first-entrance times into the working set at queue length n;
    zero on working states by convention."""

    tau: np.ndarray  # indexed by environment label index
    residual: float


def solve_tau(model: JointModel, n: int) -> AbsorptionTable:
    """Solve the first-entrance system V_BB . tau_B = -1 on the blocked set."""
    blocked = model.blocked_indices()
    tau = np.zeros(model.n_env)
    if blocked.size == 0:
        return AbsorptionTable(tau=tau, residual=0.0)
    V = model.V(n)
    VBB = V[np.ix_(blocked, blocked)]
    rhs = -np.ones(blocked.size)
    try:
        tau_b = np.linalg.solve(VBB, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"blocked states {[model.env.labels[i] for i in blocked]} have no exit at level {n}"
        ) from exc
    if not np.all(np.isfinite(tau_b)) or np.any(tau_b <= 0):
        raise SingularSystem(
            f"first-entrance times at level {n} are not positive finite: {tau_b}"
        )
    residual = float(np.abs(VBB @ tau_b - rhs).max())
    if residual > TAU_RESIDUAL_TOL:
        raise SingularSystem(f"first-entrance residual {residual:.3e} at level {n}")
    tau[blocked] = tau_b
    return AbsorptionTable(tau=tau, residual=residual)


def c_hat(model: JointModel, n: int, table: AbsorptionTable | None = None) -> float:
    """Reciprocal of the worst expected blocked-passage cost incurred when
    leaving a working state at queue length n, via either a service-triggered
    jump (weighted mu(n+1) * R_{n+1}) or a continuous move (weighted v_n).
    Returns +inf when the blocked set is unreachable from working states."""
    if table is None:
        table = solve_tau(model, n)
    blocked = model.blocked_indices()
    working = model.working_indices()
    if blocked.size == 0 or working.size == 0:
        return float("inf")
    tau_b = table.tau[blocked]
    jump = model.service(n + 1) * (model.R(n + 1)[np.ix_(working, blocked)] @ tau_b).max()
    cont = (model.V(n)[np.ix_(working, blocked)] @ tau_b).max()
    return 1.0 / worst if (worst := max(jump, cont)) > 0.0 else float("inf")


class MM1Lyapunov(NamedTuple):
    """Lyapunov function for the isolated queue: values, exception levels and
    the drift constant."""

    kind: str  # linear_drift | hitting_time
    values: tuple  # L_tilde(0..H + 1) at least, for `certify`'s check horizon H
    F_levels: tuple
    eps_tilde: float


class CannotBuild(NamedTuple):
    kind: str
    reason: str


def _check_horizon(model: JointModel) -> int:
    """The top level of `certify`'s drift check: the prefix and two tail periods."""
    return model.tail_start + 2 * model.period + 2


def build_mm1_lyapunov(model: JointModel, kind: str = "linear_drift"):
    """Construct a Lyapunov function for the isolated birth-death queue.

    linear_drift: L(n) = n with the exception set covering levels before the
    drift mu - lambda turns (and stays) positive.  hitting_time: L(n) = mean
    first-entrance time into {0}, which has drift exactly -1 off {0}; needs an
    eventually constant tail.
    """
    N0, p = model.tail_start, model.period
    horizon = _check_horizon(model)
    if kind == "linear_drift":
        drifts = [model.service(n) - model.arrival(n) for n in range(1, N0 + p + 1)]
        N = None
        for start in range(N0 + p):
            # by periodicity the levels {start.. N0+p-1} cover all n >= start
            if min(drifts[start:]) > 0.0:
                N = start
                break
        if N is None:
            return CannotBuild(kind=kind, reason="no level beyond which mu - lambda stays positive")
        eps_tilde = min(drifts[N:])
        # the drift inequality at level 0 reads lambda(0) <= -eps and always
        # fails for L(n) = n, so 0 stays in the exception set
        N = max(N, 1)
        values = tuple(float(n) for n in range(horizon + 2))
        return MM1Lyapunov(
            kind=kind,
            values=values,
            F_levels=tuple(range(N)),
            eps_tilde=eps_tilde,
        )
    if kind == "hitting_time":
        if p != 1:
            return CannotBuild(kind=kind, reason="hitting_time needs an eventually constant tail (p* = 1)")
        lam_t, mu_t = model.arrival(N0), model.service(N0 + 1)
        if mu_t <= lam_t:
            return CannotBuild(kind=kind, reason="tail drift mu - lambda is not positive")
        # h[n] = mean passage time n -> n-1; constant beyond the prefix
        top = max(horizon + 2, N0 + 2)
        h = np.empty(top + 1)
        h[N0 + 1 :] = 1.0 / (mu_t - lam_t)
        for n in range(N0, 0, -1):
            h[n] = (1.0 + model.arrival(n) * h[n + 1]) / model.service(n)
        values = np.concatenate(([0.0], np.cumsum(h[1 : top + 1])))
        return MM1Lyapunov(
            kind=kind,
            values=tuple(values),
            F_levels=(0,),
            eps_tilde=1.0,
        )
    raise ValueError(f"unknown Lyapunov kind {kind!r}")


class LyapunovCertificate(NamedTuple):
    kind: str
    eps: float
    eps_tilde: float
    F_levels: tuple
    c_table: dict  # representative level -> c_n
    c_hat_table: dict
    tau_tables: dict  # representative level -> AbsorptionTable
    check_horizon: int
    worst_margin: float  # min over checked off-F states of (-eps - QL)

    certified: bool = True

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "epsilon": self.eps,
            "epsilon_tilde": self.eps_tilde,
            "F_levels": list(self.F_levels),
            "c_n": {int(n): float(c) for n, c in self.c_table.items()},
            "c_hat_n": {int(n): float(c) for n, c in self.c_hat_table.items()},
            "tau": {int(n): [float(t) for t in tab.tau] for n, tab in self.tau_tables.items()},
            "check_horizon": self.check_horizon,
            "worst_margin": self.worst_margin,
        }


class NotCertified(NamedTuple):
    # NecessaryFails | SeveralClosedClasses | TransientStates | NoLyapunov | CHatInfimumZero | DriftCheckFails
    reason: str
    detail: str = ""
    violating_state: tuple | None = None
    certified: bool = False


def _drift(model: JointModel, values: np.ndarray):
    """Drift of L at every state of levels 0..H-1 and its round-off slack, for
    L given on levels 0..H as `values` (shape (H + 1, |K|)).  The drift is in
    difference form, sum over moves of rate * (L(target) - L(here)), summed
    in `generator_row` order; the slack is `SLACK_RTOL` times the sum of
    rate * (|L(target)| + |L(here)|)."""
    checked = np.arange(len(values) - 1)
    moves = _level_moves(model, _representatives(model))
    cls = _level_classes(model, checked)
    rate = moves.rate[cls]
    here = values[:-1, :, None]
    # level 0 has no down moves, so every target is on the table; padding points at the state itself
    there = values.ravel()[checked[:, None, None] * model.n_env + moves.shift[cls]]
    drift = np.cumsum(rate * (there - here), axis=2)[:, :, -1]
    # each difference of two values of L is off by round-off of their size, not of the difference's
    slack = SLACK_RTOL * (rate * (np.abs(there) + np.abs(here))).sum(axis=2)
    return drift, slack


def certify(model: JointModel, kind: str = "linear_drift"):
    """Build and numerically verify a Lyapunov certificate for the joint
    chain, or explain why none was obtained."""
    # a working state and r < 1 are necessary (README, "Ergodicity is summability"), and sufficient if irreducible
    if verdict := queue_marginal(model).verdict:
        return NotCertified(reason="NecessaryFails", detail=verdict[1])
    if verdict := reachability(model):
        return NotCertified(*verdict)
    N0, p = model.tail_start, model.period
    horizon = _check_horizon(model)
    base = build_mm1_lyapunov(model, kind=kind)
    if isinstance(base, CannotBuild):
        return NotCertified(reason="NoLyapunov", detail=f"{base.kind}: {base.reason}")
    reps = range(N0 + p)
    tau_tables = {n: solve_tau(model, n) for n in reps}
    c_hat_table = {n: c_hat(model, n, tau_tables[n]) for n in reps}
    if min(c_hat_table.values()) <= 0.0:
        return NotCertified(reason="CHatInfimumZero")
    c_table = {n: base.eps_tilde / 4.0 * ch for n, ch in c_hat_table.items()}
    finite_c = [c for c in c_table.values() if math.isfinite(c)]
    eps = min([base.eps_tilde / 2.0] + finite_c)

    def L(n):
        fold = _periodic(reps[:N0], reps[N0:], n)
        tau = tau_tables[fold].tau
        out = np.full(model.n_env, base.values[n])
        blocked = tau != 0.0
        out[blocked] += c_table[fold] * tau[blocked]
        return out

    drift, slack = _drift(model, np.array([L(n) for n in range(horizon + 2)]))
    in_F = np.isin(np.arange(horizon + 1), base.F_levels)[:, None]
    margin = -eps - drift
    # an infinite drift makes the slack infinite too, so non-finite drifts are caught on their own
    bad = np.flatnonzero(~np.isfinite(drift) | (~in_F & (margin < -slack)))
    if bad.size:
        n, k = divmod(int(bad[0]), model.n_env)
        if in_F[n, 0]:
            detail = "drift not finite on exception set"
        else:
            detail = f"drift {drift[n, k]:.6e} exceeds -eps = {-eps:.6e}"
        return NotCertified(reason="DriftCheckFails", detail=detail, violating_state=(n, k))
    return LyapunovCertificate(
        kind=kind,
        eps=eps,
        eps_tilde=base.eps_tilde,
        F_levels=tuple(sorted(base.F_levels)),
        c_table=c_table,
        c_hat_table=c_hat_table,
        tau_tables=tau_tables,
        check_horizon=horizon,
        worst_margin=float(margin[~in_F[:, 0]].min(initial=np.inf)),
    )
