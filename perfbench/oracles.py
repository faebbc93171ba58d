"""Answers computed apart from envqueue, and the checks that compare the
program's output files with them.

Nothing here imports envqueue.  The closed forms are the birth-death
solutions of the separable systems and the b = 1 perishable formula; the
remaining checks are properties every correct answer has (normalisation,
the level-cut identity, bound ordering, confidence-interval coverage).
Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TOL = 1e-9
# Simulated throughput may miss the exact value by at most CI_WIDTHS
# half-widths of the simulator's t-interval.  With fewer than
# MIN_T_REPLICATIONS replications that interval is too loose to check
# anything (t(0.975, 1) = 12.7) and its width is itself random, so there the
# tolerance is SIM_SIGMAS * sqrt(TH / (replications * T)): departures over a
# window of length T have standard deviation close to sqrt(TH * T) (measured
# 1.08x that on heavy_traffic).
CI_WIDTHS = 4.0
MIN_T_REPLICATIONS = 10
SIM_SIGMAS = 8.0
SIM_WARMUP = 0.1  # the simulator's default warm-up fraction


def birth_death_theta(lam, nu, ageing):
    """Stationary vector of the reduced inventory chain: k -> k+1 at nu,
    k -> k-1 at lam + ageing[k]; so theta(k+1)/theta(k) = nu/(lam + ageing[k+1])."""
    weights = [1.0]
    for k in range(1, len(ageing)):
        weights.append(weights[-1] * nu / (lam + ageing[k]))
    total = math.fsum(weights)
    return [w / total for w in weights]


def ageing_rates(kind, gamma, b):
    """Per-stock loss rate: none for base stock, gamma*k for "minus",
    gamma*(k-1)+ for "plus"."""
    if kind == "base_stock":
        return [0.0] * (b + 1)
    if kind == "perishable_minus":
        return [gamma * k for k in range(b + 1)]
    if kind == "perishable_plus":
        return [gamma * max(k - 1, 0) for k in range(b + 1)]
    raise ValueError(f"no closed form for {kind}")


def separable_theta(kind, lam, nu, b, gamma=0.0):
    return birth_death_theta(lam, nu, ageing_rates(kind, gamma, b))


def separable_throughput(kind, lam, nu, b, gamma=0.0):
    """TH = lam * (1 - theta(0)) for the separable inventory systems."""
    return lam * (1.0 - separable_theta(kind, lam, nu, b, gamma)[0])


def perishable_b1_throughput(lam, mu, nu, gamma):
    """Exact throughput of perishable_o with b = 1:
    C = mu/(mu-lam) (1 + lam/nu) + gamma/nu, TH = lam mu / ((mu-lam) C)."""
    C = mu / (mu - lam) * (1.0 + lam / nu) + gamma / nu
    return lam * mu / ((mu - lam) * C)


def _read_json(outdir, name):
    return json.loads((Path(outdir) / name).read_text())


def _close(label, got, want, tol=TOL):
    if got is None or not abs(got - want) <= tol:
        return [f"{label}: got {got!r}, expected {want!r} (tol {tol:g})"]
    return []


def check_theta(theta, kind, lam, nu, b, gamma=0.0):
    """theta against the closed form, entrywise and through the ratios."""
    want = separable_theta(kind, lam, nu, b, gamma)
    if theta is None or len(theta) != len(want):
        return [f"theta has {None if theta is None else len(theta)} entries, expected {len(want)}"]
    fails = []
    for k, (got, ref) in enumerate(zip(theta, want)):
        fails += _close(f"theta({k})", got, ref)
    ageing = ageing_rates(kind, gamma, b)
    for k in range(b):
        if theta[k] > 0.0:
            ratio = theta[k + 1] / theta[k]
            ref = nu / (lam + ageing[k + 1])
            fails += _close(f"theta({k + 1})/theta({k})", ratio, ref, TOL * ref)
    return fails


def check_stationary_csv(path, lam, mu, blocked=(0,)):
    """stationary.csv sums to one and meets the level-cut identity
    lam * sum_W pi(n, .) = mu * sum_W pi(n+1, .) for n below 0.9 N."""
    working = {}
    total = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            n, pi = int(row["n"]), float(row["pi"])
            total.append(pi)
            if int(row["k"]) not in blocked:
                working[n] = working.get(n, 0.0) + pi
    fails = _close("sum of pi", math.fsum(total), 1.0)
    N = max(working)
    for n in range(int(0.9 * N)):
        lhs, rhs = lam * working[n], mu * working[n + 1]
        if abs(lhs - rhs) > 1e-8 * max(lhs, rhs, 1e-300):
            fails.append(f"level cut {n}|{n + 1}: {lhs!r} != {rhs!r}")
            break
    return fails


def sim_tolerance(record, horizon, exact):
    reps = len(record["per_replication"])
    if reps >= MIN_T_REPLICATIONS:
        return CI_WIDTHS * record["half_width"]
    window = horizon * (1.0 - SIM_WARMUP)
    return SIM_SIGMAS * math.sqrt(exact / (reps * window))


def check_sim_estimate(record, horizon, low, high):
    """Simulated mean within tolerance of the exact value (low == high) or of
    the interval [low, high] that the exact value is known to lie in."""
    mean = record["mean"]
    tol = sim_tolerance(record, horizon, high)
    if not (low - tol <= mean <= high + tol):
        return [f"simulated mean {mean!r} outside [{low!r}, {high!r}] +/- {tol!r}"]
    if record["total_jumps"] < 1:
        return ["simulation reports no jumps"]
    return []


def check_ordering(label, th_minus, th_o, th_plus):
    if not (th_minus - TOL <= th_o <= th_plus + TOL):
        return [f"{label}: ordering TH- {th_minus!r} <= TH_o {th_o!r} <= TH+ {th_plus!r} fails"]
    return []


def perishable_bounds(lam, nu, gamma, b):
    return (
        separable_throughput("perishable_minus", lam, nu, b, gamma),
        separable_throughput("perishable_plus", lam, nu, b, gamma),
    )


# -- checks of one command's output directory --------------------------------
# Each takes (outdir, exit code) plus the model parameters the call used.


def expect_code(code, want):
    return [] if code == want else [f"exit code {code}, expected {want}"]


def validate_ok(outdir, code):
    rec = _read_json(outdir, "validation.json")
    fails = expect_code(code, 0)
    if not rec["passed"] or rec["violations"]:
        fails.append(f"validation failed: {rec['violations'][:3]}")
    return fails


def separable_ok(outdir, code, kind, lam, nu, b, gamma=0.0):
    rec = _read_json(outdir, "separability.json")
    fails = expect_code(code, 0)
    if not rec["separable"]:
        return fails + [f"reported not separable: {rec['reason']}"]
    return fails + check_theta(rec["theta"], kind, lam, nu, b, gamma)


def not_separable_ok(outdir, code):
    rec = _read_json(outdir, "separability.json")
    fails = expect_code(code, 1)
    if rec["separable"]:
        fails.append("perishable_o reported separable")
    return fails


def certified_ok(outdir, code):
    rec = _read_json(outdir, "certificate.json")
    fails = expect_code(code, 0)
    if not rec.get("epsilon", 0.0) > 0.0:
        fails.append(f"not certified although lam < mu: {rec}")
    return fails


def solve_ok(outdir, code, lam, mu, low, high):
    """Throughput within [low, high] (equal for an exact answer) and a
    stationary vector that meets the level-cut identity."""
    rec = _read_json(outdir, "metrics.json")
    fails = expect_code(code, 0)
    if low == high:
        fails += _close("throughput", rec["throughput"], low)
    else:
        fails += check_ordering("solve", low, rec["throughput"], high)
    return fails + check_stationary_csv(Path(outdir) / "stationary.csv", lam, mu)


def simulate_ok(outdir, code, horizon, low, high):
    rec = _read_json(outdir, "simulation.json")
    return expect_code(code, 0) + check_sim_estimate(rec, horizon, low, high)


def bounds_ok(outdir, code, lam, mu, nu, gamma, b, sim=None):
    """Closed-form bounds, the ordering, the b = 1 closed form, and the
    simulated TH_o when `sim` = (horizon, replications) is given."""
    rec = _read_json(outdir, "bounds.json")
    th_minus, th_plus = perishable_bounds(lam, nu, gamma, b)
    fails = expect_code(code, 0)
    fails += _close("TH_minus", rec["TH_minus"], th_minus)
    fails += _close("TH_plus", rec["TH_plus"], th_plus)
    fails += check_ordering("bounds", th_minus, rec["TH_o_truncated"], th_plus)
    if not rec["ordering_holds"]:
        fails.append("bounds reports the ordering violated")
    if b == 1:
        fails += _close("TH_o (b = 1)", rec["TH_o_truncated"], perishable_b1_throughput(lam, mu, nu, gamma))
    if sim is not None:
        horizon, replications = sim
        est = {"mean": rec["TH_o_sim_mean"], "half_width": rec["TH_o_sim_half_width"], "total_jumps": 1,
               "per_replication": [None] * replications}
        fails += check_sim_estimate(est, horizon, th_minus, th_plus)
    return fails


def sweep_ok(outdir, code, lam, mu, nu, b):
    """Closed-form bounds at every gamma; the lower bound is proved for
    lam <= gamma and the upper one for gamma = mu."""
    fails = expect_code(code, 0)
    with open(Path(outdir) / "sweep.csv", newline="") as fh:
        rows = [{key: float(v) for key, v in row.items()} for row in csv.DictReader(fh)]
    if not rows:
        fails.append("sweep.csv has no rows")
    for row in rows:
        gamma = row["gamma"]
        th_minus, th_plus = perishable_bounds(lam, nu, gamma, b)
        fails += _close(f"TH_minus(gamma={gamma})", row["TH_minus"], th_minus)
        fails += _close(f"TH_plus(gamma={gamma})", row["TH_plus"], th_plus)
        if lam <= gamma and row["TH_o"] < th_minus - TOL:
            fails.append(f"TH_o below TH_minus at gamma={gamma}")
        if gamma == mu:
            fails += check_ordering(f"sweep gamma={gamma}", th_minus, row["TH_o"], th_plus)
    return fails
