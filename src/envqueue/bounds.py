"""Two-sided throughput bounds for the perishable queueing-inventory system.

The target system protects the item in production from ageing while the
server is busy ("o" regime); it is not separable for base stock b >= 2.  Two
companion systems with queue-length independent ageing are separable and
bound it: the "minus" system ages all k items (lower bound) and the "plus"
system always protects one item (upper bound).  All three exact throughputs
come from `numerics.metrics`: the bounds' from their product forms, the
target's from its exact solve, which lists no levels.  Simulation gives an
independent estimate of the target's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import perishable_minus, perishable_o, perishable_plus
from .model import EnvqueueError, InvalidParam, JointModel
from .numerics import auto_truncate  # noqa: F401  (perfbench/tracing.py wraps this name)
from .numerics import exact_solve, metrics
from .separability import NotSeparable, product_form
from .simulate import SimConfig, departure_values, isotone_check, simulate

ORDER_TOL = 1e-9
JUMP_HORIZON = 50  # value-iteration steps of the isotonicity evidence
VALUE_CAP = 100  # queue levels of its value tables


class AgeingOrderViolated(EnvqueueError):
    """The built systems' ageing rates are not ordered plus <= o <= minus;
    this indicates a construction bug in the catalog, not a property of the
    parameters."""


class NotSeparableBoundSystem(EnvqueueError):
    """A bounding system failed the product-form verification; this indicates
    a convention bug in the separable steady state, not a property of the
    model."""


def build_triple(lam, mu, nu, gamma, b) -> tuple[JointModel, JointModel, JointModel]:
    """The (minus, o, plus) systems with shared parameters; verifies on the
    target's representative levels that the built ageing rates V_n[k, k-1]
    are ordered plus <= o <= minus."""
    if not lam < mu:
        raise InvalidParam(f"need lam < mu for ergodic bounding systems, got {lam} >= {mu}")
    lower = perishable_minus(lam, mu, nu, gamma, b)
    target = perishable_o(lam, mu, nu, gamma, b)
    upper = perishable_plus(lam, mu, nu, gamma, b)
    for n in target.representative_levels():
        plus, o, minus = (np.diagonal(system.V(n), -1) for system in (upper, target, lower))
        bad = np.flatnonzero((plus > o) | (o > minus))
        if bad.size:
            raise AgeingOrderViolated(f"ageing rates out of order plus <= o <= minus at (n={n}, k={bad[0] + 1})")
    return lower, target, upper


def _exact_throughputs(lower, target, upper):
    """TH-, TH_o and TH+ from `metrics`, and the bounds' product forms by tag."""
    pfs = {}
    for tag, system in (("minus", lower), ("plus", upper)):
        pf = product_form(system)
        if isinstance(pf, NotSeparable):
            raise NotSeparableBoundSystem(f"{tag} system: {pf.reason} (residual {pf.residual})")
        pfs[tag] = pf
    th_o = metrics(exact_solve(target), target).throughput
    return metrics(pfs["minus"], lower).throughput, th_o, metrics(pfs["plus"], upper).throughput, pfs


def perishable_b1_closed_form(lam, mu, nu, gamma):
    """Exact steady state of the target system with b = 1:
    pi(n, k) accessor and its throughput."""
    if not lam < mu:
        raise InvalidParam("closed form requires lam < mu")
    C = mu / (mu - lam) * (1.0 + lam / nu) + gamma / nu

    def pi(n, k):
        rho_n = (lam / mu) ** n
        if k == 0:
            return ((lam + gamma) / nu if n == 0 else rho_n * lam / nu) / C
        return rho_n / C

    th = lam * mu / (mu - lam) / C
    return pi, th


@dataclass(frozen=True)
class BoundReport:
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

    lower_ok = th_minus <= th_o + ORDER_TOL
    upper_ok = th_o <= th_plus + ORDER_TOL
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
