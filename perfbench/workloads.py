"""The four workloads: the `envqueue` command lines each one runs, the check
each answer must pass, and the cheap warm-up call of every command.

Model parameters are fixed per workload so that timings compare across
seeds; the workload seed only derives the `--seed` of every simulation.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import oracles as O

WORKLOADS = ("heavy_traffic", "large_env", "replications", "cli_batch")


@dataclass(frozen=True)
class Call:
    """One `envqueue` command line (without --out) and the check of its
    output directory; `check(outdir, exit_code)` returns failure messages.
    `fails_with` names the exception of a known fault that the call raises
    until it is mended; any other exception is a failed check."""

    name: str
    argv: tuple
    check: object
    fails_with: str | None = None

    @property
    def command(self):
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    warmups: tuple  # argv tuples, one per command the workload uses
    in_process: bool
    round_s: float  # one round's wall time on an idle machine


def _num(x):
    return repr(float(x)) if not float(x).is_integer() else str(int(x))


def catalog_args(kind, lam, mu, nu, b, gamma=None):
    args = ["--catalog", kind, "--lambda", _num(lam), "--mu", _num(mu), "--nu", _num(nu), "--b", str(b)]
    if gamma is not None:
        args += ["--gamma", _num(gamma)]
    return tuple(args)


def bound_args(lam, mu, nu, gamma, b):
    return ("--lambda", _num(lam), "--mu", _num(mu), "--nu", _num(nu), "--gamma", _num(gamma), "--b", str(b))


def write_base_stock_file(path, lam, mu, nu, b):
    """Base stock as an explicit-matrix model file (JSON is valid YAML):
    replenishment k -> k+1 at nu, a service completion uses one item."""
    m = b + 1
    V = [[0.0] * m for _ in range(m)]
    R = [[0.0] * m for _ in range(m)]
    for k in range(m):
        if k < b:
            V[k][k + 1] = nu
            V[k][k] = -nu
        R[k][max(k - 1, 0)] = 1.0
    doc = {
        "name": f"base_stock_b{b}_explicit",
        "rates": {"lambda_tail": [lam], "mu_tail": [mu]},
        "environment": {"labels": list(range(m)), "blocked": [0], "V_tail": [V], "R_tail": [R]},
    }
    Path(path).write_text(json.dumps(doc) + "\n")
    return str(path)


# -- per-command call builders ----------------------------------------------


def separability_call(name, kind, lam, mu, nu, b, gamma=None, source=None):
    argv = ("separability", *(source or catalog_args(kind, lam, mu, nu, b, gamma)))
    if kind == "perishable_o":
        return Call(name, argv, O.not_separable_ok)
    return Call(name, argv, functools.partial(O.separable_ok, kind=kind, lam=lam, nu=nu, b=b, gamma=gamma or 0.0))


def solve_call(name, kind, lam, mu, nu, b, gamma=None, source=None, fails_with=None):
    argv = ("solve", *(source or catalog_args(kind, lam, mu, nu, b, gamma)))
    if kind == "perishable_o":
        low, high = O.perishable_bounds(lam, nu, gamma, b)
        if b == 1:
            low = high = O.perishable_b1_throughput(lam, mu, nu, gamma)
    else:
        low = high = O.separable_throughput(kind, lam, nu, b, gamma or 0.0)
    return Call(name, argv, functools.partial(O.solve_ok, lam=lam, mu=mu, low=low, high=high), fails_with)


def simulate_call(name, kind, lam, mu, nu, b, seed, horizon, replications, gamma=None, source=None):
    argv = ("simulate", *(source or catalog_args(kind, lam, mu, nu, b, gamma)),
            "--seed", str(seed), "--horizon", _num(horizon), "--replications", str(replications))
    if kind == "perishable_o":
        low, high = O.perishable_bounds(lam, nu, gamma, b)
    else:
        low = high = O.separable_throughput(kind, lam, nu, b, gamma or 0.0)
    return Call(name, argv, functools.partial(O.simulate_ok, horizon=horizon, low=low, high=high))


def bounds_call(name, lam, mu, nu, gamma, b, sim=None):
    argv = ("bounds", "--catalog", "perishable_o", *bound_args(lam, mu, nu, gamma, b))
    if sim is not None:
        seed, horizon, replications = sim
        argv += ("--seed", str(seed), "--horizon", _num(horizon), "--replications", str(replications))
        sim = (horizon, replications)
    check = functools.partial(O.bounds_ok, lam=lam, mu=mu, nu=nu, gamma=gamma, b=b, sim=sim)
    return Call(name, argv, check)


def sweep_call(name, lam, mu, nu, b, gamma_min, gamma_max, steps):
    argv = ("sweep", "--catalog", "perishable_o", "--lambda", _num(lam), "--mu", _num(mu), "--nu", _num(nu),
            "--b", str(b), "--gamma-min", _num(gamma_min), "--gamma-max", _num(gamma_max),
            "--gamma-steps", str(steps))
    return Call(name, argv, functools.partial(O.sweep_ok, lam=lam, mu=mu, nu=nu, b=b))


def validate_call(name, source):
    return Call(name, ("validate", *source), O.validate_ok)


def certify_call(name, source):
    return Call(name, ("certify", *source), O.certified_ok)


# -- workloads ----------------------------------------------------------------

# Heavy traffic: mu = gamma = 1 (the proved bound regime), nu = 3, b = 5.
HT = dict(mu=1.0, nu=3.0, b=5, gamma=1.0)
HT_RHOS = (0.95, 0.99, 0.999)
# Large environments at moderate load: theta_0 is 0.017 ("minus") and 0.0017
# ("plus"), far above round-off, so the ordering checks have content.
LE = dict(lam=1.0, mu=2.0, nu=10.0, gamma=2.0)
LE_BASE = (50, 100)
# Small models for many replications and for one process per command.
SM = dict(lam=1.0, mu=2.0, nu=1.0, gamma=2.0)


def _heavy_traffic(seeds, files):
    mu, nu, b, gamma = HT["mu"], HT["nu"], HT["b"], HT["gamma"]
    # Four long simulations of two replications each, spread over the round:
    # a burst of load from other tenants then skews the timing of only one or
    # two of them, and sim_jumps_per_s sums over all four.
    sims = iter([simulate_call(f"simulate_{tag}{i}_rho0.95", kind, 0.95, mu, nu, b, next(seeds),
                               horizon=1e4, replications=2, gamma=g)
                 for i in (1, 2) for tag, kind, g in (("po", "perishable_o", gamma), ("bs", "base_stock", None))])
    calls = []
    for lam in HT_RHOS:
        tag = f"rho{_num(lam)}"
        bs = catalog_args("base_stock", lam, mu, nu, b)
        po = catalog_args("perishable_o", lam, mu, nu, b, gamma)
        calls += [
            next(sims),
            separability_call(f"separability_bs_{tag}", "base_stock", lam, mu, nu, b),
            separability_call(f"separability_po_{tag}", "perishable_o", lam, mu, nu, b, gamma),
            certify_call(f"certify_bs_{tag}", bs),
            certify_call(f"certify_po_{tag}", po),
            # at 0.999 this is the kept failure: auto_truncate raises Diverging
            solve_call(f"solve_bs_{tag}", "base_stock", lam, mu, nu, b,
                       fails_with="Diverging" if lam == 0.999 else None),
        ]
    # perishable_o at 0.999 also diverges (the same fault), so it is solved
    # at 0.95 and 0.99 only; bounds and sweep at 0.99 would add 3 s a round
    calls += [
        solve_call("solve_po_rho0.95", "perishable_o", 0.95, mu, nu, b, gamma),
        solve_call("solve_po_rho0.99", "perishable_o", 0.99, mu, nu, b, gamma),
        bounds_call("bounds_rho0.95", 0.95, mu, nu, gamma, b),
        sweep_call("sweep_rho0.95", 0.95, mu, nu, b, gamma_min=1.0, gamma_max=2.0, steps=2),
        next(sims),
    ]
    return calls


def _large_env(seeds, files):
    lam, mu, nu, gamma = LE["lam"], LE["mu"], LE["nu"], LE["gamma"]
    calls = []
    for b in LE_BASE:
        if b == 50:
            bs = ("--model", write_base_stock_file(files / "base_stock_b50.yaml", lam, mu, nu, b))
        else:
            bs = catalog_args("base_stock", lam, mu, nu, b)
        po = catalog_args("perishable_o", lam, mu, nu, b, gamma)
        calls += [
            validate_call(f"validate_bs_b{b}", bs),
            validate_call(f"validate_po_b{b}", po),
            separability_call(f"separability_bs_b{b}", "base_stock", lam, mu, nu, b, source=bs),
            separability_call(f"separability_po_b{b}", "perishable_o", lam, mu, nu, b, gamma),
            certify_call(f"certify_bs_b{b}", bs),
            certify_call(f"certify_po_b{b}", po),
            solve_call(f"solve_bs_b{b}", "base_stock", lam, mu, nu, b, source=bs),
            solve_call(f"solve_po_b{b}", "perishable_o", lam, mu, nu, b, gamma),
            bounds_call(f"bounds_b{b}", lam, mu, nu, gamma, b),
            simulate_call(f"simulate_bs_b{b}", "base_stock", lam, mu, nu, b, next(seeds),
                          horizon=1000, replications=10, source=bs),
        ]
    return calls


def _replications(seeds, files):
    lam, mu, nu, gamma = SM["lam"], SM["mu"], SM["nu"], SM["gamma"]
    return [
        simulate_call("simulate_bs_b2", "base_stock", lam, mu, nu, 2, next(seeds), horizon=200, replications=200),
        simulate_call("simulate_po_b2", "perishable_o", lam, mu, nu, 2, next(seeds), horizon=200,
                      replications=200, gamma=gamma),
        bounds_call("bounds_sim_b2", lam, mu, nu, gamma, 2, sim=(next(seeds), 200, 200)),
        bounds_call("bounds_sim_b1", lam, mu, nu, gamma, 1, sim=(next(seeds), 200, 200)),
    ]


def _cli_batch(seeds, files):
    lam, mu, nu, gamma = SM["lam"], SM["mu"], SM["nu"], SM["gamma"]
    bs = catalog_args("base_stock", lam, mu, nu, 2)
    po = catalog_args("perishable_o", lam, mu, nu, 2, gamma)
    model_file = ("--model", write_base_stock_file(files / "base_stock_b2.yaml", lam, mu, nu, 2))
    return [
        validate_call("validate_bs", bs),
        separability_call("separability_bs", "base_stock", lam, mu, nu, 2),
        # exit code 1: a valid negative answer
        separability_call("separability_po", "perishable_o", lam, mu, nu, 2, gamma),
        certify_call("certify_po", po),
        solve_call("solve_po", "perishable_o", lam, mu, nu, 2, gamma),
        simulate_call("simulate_bs", "base_stock", lam, mu, nu, 2, next(seeds), horizon=200, replications=200),
        bounds_call("bounds_b2", lam, mu, nu, gamma, 2),
        sweep_call("sweep_b2", lam, mu, nu, 2, gamma_min=1.0, gamma_max=2.0, steps=2),
        solve_call("solve_bs_file", "base_stock", lam, mu, nu, 2, source=model_file),
    ]


# workload -> (builder, one round's wall time on an idle machine, in seconds)
_BUILDERS = {
    "heavy_traffic": (_heavy_traffic, 5.5),
    "large_env": (_large_env, 6.0),
    "replications": (_replications, 1.5),
    "cli_batch": (_cli_batch, 10.0),
}


def _warmups(calls, files):
    """One cheap call of each command the workload uses, plus a model-file
    load, so that imports a command defers to its first call are paid."""
    lam, mu, nu, gamma = SM["lam"], SM["mu"], SM["nu"], SM["gamma"]
    bs = catalog_args("base_stock", lam, mu, nu, 2)
    small = {
        "validate": ("validate", *bs),
        "separability": ("separability", *bs),
        "certify": ("certify", *bs),
        "solve": ("solve", *bs),
        "simulate": ("simulate", *bs, "--horizon", "10", "--replications", "2"),
        "bounds": ("bounds", "--catalog", "perishable_o", *bound_args(lam, mu, nu, gamma, 1)),
        "sweep": ("sweep", "--catalog", "perishable_o", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "1",
                  "--gamma-min", "2", "--gamma-max", "2", "--gamma-steps", "1"),
    }
    commands = sorted({c.command for c in calls})
    warm = [small[c] for c in commands]
    if any("--model" in c.argv for c in calls):
        warm.append(("validate", "--model", write_base_stock_file(files / "warmup_b1.yaml", lam, mu, nu, 1)))
    return tuple(warm)


def build(name, workdir, seed):
    """Write the workload's model files under `workdir` and return its calls.
    Every simulation seed is drawn from `seed`, so equal seeds give equal inputs."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    files = Path(workdir) / "models"
    files.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    seeds = iter(lambda: rng.randrange(2**31), None)
    builder, round_s = _BUILDERS[name]
    calls = tuple(builder(seeds, files))
    return Workload(name, calls, _warmups(calls, files), in_process=name != "cli_batch", round_s=round_s)
