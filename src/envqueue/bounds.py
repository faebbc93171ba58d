"""Two-sided throughput bounds for the perishable queueing-inventory system.

The target system protects the item in production from ageing while the
server is busy ("o" regime); it is not separable for base stock b >= 2.  Two
companion systems with queue-length independent ageing are separable and
bound it: the "minus" system ages all k items (lower bound) and the "plus"
system always protects one item (upper bound).  All three exact throughputs
come without listing a level: the bounds' from `numerics.metrics` of their
product forms.  The target's environment is a Markov chain on its own where
mu = gamma, and there TH_o = theta_env(W) TH_iso; elsewhere TH_o comes from
`metrics` of its exact solve.  Simulation gives an independent estimate of
the target's.  Expected departures within `JUMP_HORIZON` steps of each
system's uniformized chain P = I + Q/Lambda, Lambda its own largest exit
rate, give isotonicity evidence.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .catalog import perishable_minus, perishable_o, perishable_plus
from .model import EnvqueueError, JointModel, _blocks, _capped_classes, _level_moves, _representatives
from .numerics import auto_truncate  # noqa: F401  (perfbench/tracing.py wraps this name)
from .numerics import _ergodic_marginal, _exact_tail, autonomous_environment, isolated_throughput, metrics
from .separability import NotSeparable, product_form
from .simulate import SimConfig, simulate

ORDER_RTOL = 1e-9  # the ordering tolerates a TH excess of this times TH+
JUMP_HORIZON = 50  # steps of the uniformized chain in the isotonicity evidence
VALUE_CAP = 100  # queue levels of its value tables


class NotSeparableBoundSystem(EnvqueueError):
    """A bounding system failed the product-form verification; this indicates
    a convention bug in the separable steady state, not a property of the
    model."""


def build_triple(lam, mu, nu, gamma, b) -> tuple[JointModel, JointModel, JointModel]:
    """The (minus, o, plus) systems with shared parameters; the catalog builds
    their ageing rates V_n[k, k-1] ordered plus <= o <= minus."""
    return (perishable_minus(lam, mu, nu, gamma, b), perishable_o(lam, mu, nu, gamma, b),
            perishable_plus(lam, mu, nu, gamma, b))


def _exact_throughputs(lower, target, upper):
    """TH-, TH_o and TH+, and the bounds' product forms by tag.  TH_o comes
    first, so a triple that is not ergodic raises NotErgodic: theta_env(W)
    TH_iso where the target's environment is autonomous (`autonomous_environment`:
    mu = gamma), one GTH solve on |K| states, elsewhere `metrics` of the exact
    solve, from the same blocks.  TH- and TH+ are `metrics` of the product forms."""
    blocks = _blocks(target)
    theta = autonomous_environment(target, *blocks)
    if theta is None:
        th_o = metrics(_exact_tail(target, *blocks), target).throughput
    else:
        th_o = float(theta[target.env.working_mask()].sum()) * isolated_throughput(target)
    pfs = {}
    for tag, system in (("minus", lower), ("plus", upper)):
        pf = product_form(system)
        if isinstance(pf, NotSeparable):
            raise NotSeparableBoundSystem(f"{tag} system: {pf.reason} (residual {pf.residual})")
        pfs[tag] = pf
    return metrics(pfs["minus"], lower).throughput, th_o, metrics(pfs["plus"], upper).throughput, pfs


def perishable_b1_closed_form(lam, mu, nu, gamma):
    """Exact steady state of the target system with b = 1:
    pi(n, k) accessor and its throughput; NotErgodic where it has none."""
    _ergodic_marginal(perishable_o(lam, mu, nu, gamma, 1))
    C = mu / (mu - lam) * (1.0 + lam / nu) + gamma / nu

    def pi(n, k):
        rho_n = (lam / mu) ** n
        if k == 0:
            return ((lam + gamma) / nu if n == 0 else rho_n * lam / nu) / C
        return rho_n / C

    th = lam * mu / (mu - lam) / C
    return pi, th


class DepartureValueTable(NamedTuple):
    """Expected departure counts within a jump horizon, per starting state,
    on the truncated rectangle {0..N_cap} x K."""

    horizon: int
    N_cap: int
    values: np.ndarray  # shape (N_cap+1, |K|), the horizon-step table


def departure_values(model: JointModel, N_cap: int, horizon: int) -> DepartureValueTable:
    """Backward value iteration v_{j+1} = r + P v_j on the uniformized chain
    P = I + Q/Lambda of the truncated model: Lambda is the largest total exit
    rate of its states, r the service-completion rate over Lambda, and a state
    with no exit a self-loop.  Only v_j and the product P v_j are kept, so
    memory does not grow with the horizon."""
    m = model.n_env
    size = (N_cap + 1) * m
    moves = _level_moves(model, _representatives(model), cap=N_cap)
    cls = _capped_classes(model, N_cap)
    # each row's total is summed in `generator_row` order
    total = np.cumsum(moves.rate, axis=2)[:, :, -1]
    Lambda = total[cls].max() or 1.0  # a table with no move at all has P = I for any Lambda
    # each class's off-diagonal row of P by ascending target: level below, own level, level above, then the padding
    order = np.argsort(np.where(moves.rate != 0.0, moves.shift, 2 * m), axis=2, kind="stable")
    shift, rate = (np.take_along_axis(a, order, axis=2) for a in (moves.shift, moves.rate))
    prob = rate / Lambda
    reward = np.cumsum(np.where(shift < 0, prob, 0.0), axis=2)[:, :, -1]  # service completions in that order
    width = prob.shape[2]
    rows = (cls[:, None] * m + np.arange(m)).ravel()
    cols = (np.repeat(np.arange(N_cap + 1) * m, m)[:, None] + shift.reshape(-1, width)[rows]).T.copy()
    vals = prob.reshape(-1, width)[rows].T.copy()
    reward, stay = reward.ravel()[rows], (1.0 - total / Lambda).ravel()[rows]
    v = np.zeros(size)
    acc, term = np.empty(size), np.empty(size)
    for _ in range(horizon):
        # v_j = r + (P_off v_{j-1} + stay v_{j-1}), P_off's entries one padded column at a time in target order
        np.multiply(vals[0], v.take(cols[0]), out=acc)
        for w in range(1, width):
            acc += np.multiply(vals[w], v.take(cols[w]), out=term)
        acc += np.multiply(stay, v, out=term)
        np.add(reward, acc, out=v)
    return DepartureValueTable(horizon=horizon, N_cap=N_cap, values=v.reshape(N_cap + 1, m))


ISOTONE_ATOL = 1e-12  # a value gap up to this is round-off, not a violation

# one record per violation: state (m, k) and its cover (m + 1 - relation, k + relation)
VIOLATION = np.dtype([("state", np.intp, (2,)), ("relation", np.int8), ("margin", float), ("boundary", bool)])


class IsotoneReport(NamedTuple):
    isotone: bool
    violations: np.ndarray  # of `VIOLATION` records: margin = v(state) - v(cover) > ISOTONE_ATOL


def isotone_check(table: DepartureValueTable) -> IsotoneReport:
    """Check monotonicity in the product order on (queue length, env index)
    via the two covering relations.  A violation whose cover lies within
    `horizon` jumps of the queue cap is flagged as boundary-affected."""
    v = table.values
    # gap[m, k, r] = v(m, k) - v at cover r of (m+1, k), (m, k+1); -inf off the table
    gap = np.full(v.shape + (2,), -np.inf)
    np.subtract(v[:-1], v[1:], out=gap[:-1, :, 0])
    np.subtract(v[:, :-1], v[:, 1:], out=gap[:, :-1, 1])
    # C order lists the violations by state, then relation
    index = np.flatnonzero(gap > ISOTONE_ATOL)
    violations = np.empty(index.size, VIOLATION)
    violations["margin"] = gap.ravel()[index]
    violations["relation"] = index % 2
    state = violations["state"]
    state[:, 0], state[:, 1] = np.divmod(index // 2, v.shape[1])
    violations["boundary"] = state[:, 0] + 1 - violations["relation"] > table.N_cap - table.horizon
    return IsotoneReport(isotone=not index.size, violations=violations)


class BoundReport(NamedTuple):
    params: dict
    TH_minus: float
    TH_plus: float
    TH_o_truncated: float
    TH_o_sim: object  # ThroughputEstimate or None
    TH_o_closed: float | None  # exact value, only for b = 1
    ordering_holds: bool
    margins: dict
    regime: str  # proved-condition regime vs conjecture regime
    isotone: dict  # system tag -> IsotoneReport
    balance_residuals: dict

    def to_record(self) -> dict:
        rec = {
            "TH_minus": self.TH_minus,
            "TH_o_truncated": self.TH_o_truncated,
            "TH_plus": self.TH_plus,
            "TH_o_closed": self.TH_o_closed,
            "ordering_holds": self.ordering_holds,
            "regime": self.regime,
        }
        rec.update({f"param_{k}": v for k, v in self.params.items()})
        rec.update({f"margin_{k}": v for k, v in self.margins.items()})
        if self.TH_o_sim is not None:
            rec["TH_o_sim_mean"] = self.TH_o_sim.mean
            rec["TH_o_sim_half_width"] = self.TH_o_sim.half_width
        rec.update({f"isotone_{tag}": rep.isotone for tag, rep in self.isotone.items()})
        return rec


def _bound_regime(lam, mu, gamma) -> str:
    if mu == gamma:
        return "proved: mu = gamma (full chain)"
    if lam <= gamma:
        return "proved: lam <= gamma (lower bound only)"
    return "conjecture"


def bound_report(lam, mu, nu, gamma, b, sim_config: SimConfig | None = None) -> BoundReport:
    """Full bounding pipeline: exact bounds and target throughput, simulated
    target throughput, isotonicity evidence, and the verdict."""
    lower, target, upper = build_triple(lam, mu, nu, gamma, b)
    th_minus, th_o, th_plus, pf_bounds = _exact_throughputs(lower, target, upper)
    th_closed = perishable_b1_closed_form(lam, mu, nu, gamma)[1] if b == 1 else None

    sim_estimate = None
    if sim_config is not None:
        sim_estimate = simulate(target, sim_config).estimate

    isotone = {}
    for tag, system in (("minus", lower), ("o", target), ("plus", upper)):
        table = departure_values(system, N_cap=VALUE_CAP, horizon=JUMP_HORIZON)
        isotone[tag] = isotone_check(table)

    lower_ok = th_minus <= th_o + ORDER_RTOL * th_plus
    upper_ok = th_o <= th_plus + ORDER_RTOL * th_plus
    ordering = lower_ok and upper_ok
    if sim_estimate is not None:
        ordering = ordering and (
            th_minus <= sim_estimate.mean + sim_estimate.half_width
            and sim_estimate.mean - sim_estimate.half_width <= th_plus
        )
    margins = {
        "lower": th_o - th_minus,
        "upper": th_plus - th_o,
        "exact_gap": th_plus - th_minus,
    }
    return BoundReport(
        params={"lam": lam, "mu": mu, "nu": nu, "gamma": gamma, "b": b},
        TH_minus=th_minus,
        TH_plus=th_plus,
        TH_o_truncated=th_o,
        TH_o_sim=sim_estimate,
        TH_o_closed=th_closed,
        ordering_holds=ordering,
        margins=margins,
        regime=_bound_regime(lam, mu, gamma),
        isotone=isotone,
        balance_residuals={tag: pf.balance_residual for tag, pf in pf_bounds.items()},
    )


def gamma_sweep(lam, mu, nu, b, gammas):
    """Rows (gamma, TH_minus, TH_o, TH_plus) for a grid of ageing rates."""
    rows = []
    for gamma in gammas:
        th_minus, th_o, th_plus, _ = _exact_throughputs(*build_triple(lam, mu, nu, gamma, b))
        rows.append((gamma, th_minus, th_o, th_plus))
    return rows
