"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from envqueue.bounds import bound_report, gamma_sweep, perishable_b1_closed_form
from envqueue.catalog import (
    base_stock,
    mm1_plain,
    onoff_a,
    onoff_b,
    perishable_minus,
    perishable_o,
    perishable_plus,
)
from envqueue.ergodicity import LyapunovCertificate, NotCertified, c_hat, certify, solve_tau
from envqueue.model import EnvqueueError, generator_row
from envqueue.numerics import NotErgodic, auto_truncate, check_cut_structure, exact_solve, metrics, solve_truncated
from envqueue.separability import (
    NotSeparable,
    ProductFormResult,
    product_form,
    reduced_generator,
    solve_theta,
)
from envqueue.simulate import SimConfig, simulate

from conftest import value_history


def report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{tag}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_01_base_stock_product_form():
    t0 = time.perf_counter()
    model = base_stock(lam=1, mu=2, nu=1, b=2)
    pf = product_form(model)
    ok = isinstance(pf, ProductFormResult)
    ok = ok and np.abs(pf.theta - 1 / 3).max() < 1e-12
    ok = ok and all(
        abs(pf.pi(n, k) - 0.5 ** (n + 1) / 3) < 1e-12 for n in range(10) for k in range(3)
    )
    sol = solve_truncated(model, 200)
    tv = 0.5 * sum(np.abs(sol.pi[n] - pf.level_vector(n)).sum() for n in range(201))
    elapsed = time.perf_counter() - t0
    ok = ok and tv < 1e-8 and elapsed < 1.0
    report(1, "base-stock product form, theta=(1/3,1/3,1/3), TV<=1e-8 at N=200",
           ok, f"TV={tv:.2e}, {elapsed:.2f}s")


def test_criterion_02_onoff_closed_forms():
    t0 = time.perf_counter()
    eta, gamma, lam = 0.7, 1.3, 0.4
    res_a = solve_theta(onoff_a(eta=eta, gamma=gamma))
    expect_a = np.array([gamma, eta]) / (gamma + eta)
    res_b = solve_theta(onoff_b(lam=lam, gamma=gamma, eta=eta))
    expect_b = np.array([lam + gamma, eta]) / (lam + gamma + eta)
    err = max(
        np.abs(res_a.theta - expect_a).max() if res_a.found else np.inf,
        np.abs(res_b.theta - expect_b).max() if res_b.found else np.inf,
    )
    elapsed = time.perf_counter() - t0
    report(2, "on-off theta closed forms (both variants) to 1e-12",
           err < 1e-12 and elapsed < 1.0, f"err={err:.2e}, {elapsed:.2f}s")


def test_criterion_03_b1_perishable_closed_form():
    model = perishable_o(lam=1, mu=2, nu=1, gamma=1, b=1)
    sol = solve_truncated(model, 200)
    pi, _ = perishable_b1_closed_form(1.0, 2.0, 1.0, 1.0)
    err = max(abs(sol.pi[n, k] - pi(n, k)) for n in range(150) for k in (0, 1))
    spot = (
        abs(pi(0, 0) - 2 / 5) + abs(pi(0, 1) - 1 / 5)
        + abs(pi(3, 0) - 0.5**3 / 5) + abs(pi(3, 1) - 0.5**3 / 5)
    )
    report(3, "b=1 perishable closed form matches truncated solve to 1e-9",
           err < 1e-9 and spot < 1e-14, f"err={err:.2e}")


def test_criterion_04_non_separability_witness():
    model = perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2)
    res = product_form(model)
    witness = isinstance(res, NotSeparable) and res.residual >= 1e-4
    sol = solve_truncated(model, 200)
    cond = sol.pi[:40] / sol.pi[:40].sum(axis=1, keepdims=True)
    spread = float(np.abs(cond - cond[20]).max())
    report(4, "perishable b=2 non-separable: residual and level-varying env marginal >= 1e-4",
           witness and spread >= 1e-4,
           f"residual={getattr(res, 'residual', 0.0):.2e}, spread={spread:.2e}")


def test_criterion_05_cut_identity():
    builders = [
        lambda: mm1_plain(lam=1, mu=2),
        lambda: base_stock(lam=1, mu=2, nu=1, b=2),
        lambda: onoff_a(eta=1.0, gamma=2.0, lam=0.5, mu=2.0),
        lambda: onoff_b(lam=0.1, gamma=1.0, eta=1.0),
        lambda: perishable_o(lam=1, mu=2, nu=1, gamma=1, b=1),
        lambda: perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2),
        lambda: perishable_minus(lam=1, mu=2, nu=1, gamma=1, b=2),
        lambda: perishable_plus(lam=1, mu=2, nu=1, gamma=1, b=2),
    ]
    worst = 0.0
    ok = True
    for build in builders:
        model = build()
        cut = check_cut_structure(solve_truncated(model, 150), model)
        worst = max(worst, cut.worst_relative)
        ok = ok and cut.passed
    report(5, "level-cut identity within relative 1e-8 on all ergodic test models",
           ok and worst < 1e-8, f"worst={worst:.2e}")


def test_criterion_06_lyapunov_certification():
    t0 = time.perf_counter()
    cert = certify(perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2))
    pos = isinstance(cert, LyapunovCertificate) and cert.eps > 0 and cert.worst_margin >= -1e-12
    rej = certify(mm1_plain(lam=2, mu=1))
    neg = isinstance(rej, NotCertified) and rej.reason == "NecessaryFails"
    elapsed = time.perf_counter() - t0
    report(6, "perishable b=2 certified (eps>0, drift verified); lam>mu rejected",
           pos and neg and elapsed < 5.0,
           f"eps={getattr(cert, 'eps', 0.0):.4g}, {elapsed:.2f}s")


def test_criterion_07_c_hat_formula():
    ok = True
    details = []
    for mu, nu in [(2.0, 1.0), (1.5, 1.0), (3.0, 0.25)]:
        model = base_stock(lam=0.1, mu=mu, nu=nu, b=3)
        for n in (0, 1, 5):
            value = c_hat(model, n)
            ok = ok and abs(value - nu / mu) <= 1e-14
            details.append(value)
    report(7, "c_hat for base stock equals nu/mu to 1e-14", ok,
           f"sample={details[0]:.6g}")


def test_criterion_08_simulation_consistency():
    t0 = time.perf_counter()
    config = SimConfig(seed=0, horizon=1e5, replications=20)
    bs = simulate(base_stock(lam=1, mu=2, nu=1, b=2), config)
    mm = simulate(mm1_plain(lam=1, mu=2), config)
    elapsed = time.perf_counter() - t0
    ok = bs.estimate.covers(2 / 3) and mm.estimate.covers(1.0) and elapsed < 60.0
    report(8, "95% CIs cover TH=2/3 (base stock) and lambda (M/M/1), 20 x 1e5",
           ok,
           f"bs={bs.estimate.mean:.4f}+/-{bs.estimate.half_width:.4f}, "
           f"mm1={mm.estimate.mean:.4f}+/-{mm.estimate.half_width:.4f}, {elapsed:.1f}s")


def test_criterion_09_throughput_bounds():
    rep = bound_report(1.0, 1.5, 1.0, 1.5, 2,
                       sim_config=SimConfig(seed=3, horizon=2e4, replications=10))
    r2 = (
        rep.regime.startswith("proved: mu = gamma")
        and rep.ordering_holds
        and rep.TH_minus <= rep.TH_o_truncated <= rep.TH_plus
    )
    rep1 = bound_report(1.0, 2.0, 1.0, 1.0, 1)
    b1 = (
        rep1.TH_o_closed is not None
        and abs(rep1.TH_o_truncated - rep1.TH_o_closed) < 1e-8
        and rep1.TH_minus <= rep1.TH_o_closed <= rep1.TH_plus
        and rep1.ordering_holds
    )
    report(9, "TH- <= TH_o <= TH+ in the mu=gamma regime and against b=1 closed forms",
           r2 and b1,
           f"mu=gamma: {rep.TH_minus:.4f}<={rep.TH_o_truncated:.4f}<={rep.TH_plus:.4f}")


def test_criterion_10_property_suites():
    # compact always-on sweep of the randomized contracts; the full
    # hypothesis suites live in test_properties.py
    models = [
        base_stock(lam=1, mu=2, nu=1, b=2),
        perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2),
        onoff_b(lam=0.1, gamma=1.0, eta=1.0),
    ]
    ok = True
    for model in models:
        for n in range(model.tail_start + model.period + 3):
            Qr = reduced_generator(model, n)
            ok = ok and np.abs(Qr.sum(axis=1)).max() < 1e-12
            tab = solve_tau(model, n)
            ok = ok and tab.residual <= 1e-10
    values = value_history(base_stock(lam=1, mu=2, nu=1, b=2), N_cap=12, horizon=6)
    ok = ok and np.all(values[1:] >= values[:-1] - 1e-12)
    ok = ok and values[1].max() <= 1.0 + 1e-14
    config = SimConfig(seed=9, horizon=100.0, replications=3)
    a = simulate(models[0], config)
    b = simulate(models[0], config)
    ok = ok and a.estimate.per_replication == b.estimate.per_replication
    report(10, "property contracts: conservativeness, residuals, v_n monotone, v_1<=1, seed determinism", ok)


# the catalog's certification verdicts: every model is certified but the M/M/1
# queue with lam > mu, which fails the necessary condition
CERTIFY_CATALOG = {
    "mm1_plain": (mm1_plain(lam=1, mu=2), True),
    "mm1_plain_unstable": (mm1_plain(lam=2, mu=1), False),
    "base_stock_b2": (base_stock(lam=1, mu=2, nu=1, b=2), True),
    "base_stock_b3": (base_stock(lam=1, mu=2, nu=1, b=3), True),
    "onoff_a": (onoff_a(eta=1.0, gamma=2.0, lam=0.5, mu=2.0), True),
    "perishable_minus": (perishable_minus(lam=1, mu=2, nu=1, gamma=1, b=2), True),
    "perishable_o": (perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2), True),
    "perishable_plus": (perishable_plus(lam=1, mu=2, nu=1, gamma=1, b=2), True),
}


@pytest.mark.parametrize("kind", ["linear_drift", "hitting_time"])
def test_catalog_certification_agrees_with_exact_solve(kind):
    for name, (model, certified) in CERTIFY_CATALOG.items():
        result = certify(model, kind=kind)
        try:
            tail = auto_truncate(model).tail
            ergodic = True
        except NotErgodic:
            ergodic = False
        else:
            # R solves A0 + R A1 + R^2 A2 = 0 to round-off
            assert tail.R_residual <= 1e-12, (name, tail.R_residual)
        if certified:
            assert isinstance(result, LyapunovCertificate) and result.eps > 0, (name, result)
            assert result.worst_margin >= -1e-12, (name, result.worst_margin)
        else:
            assert isinstance(result, NotCertified) and result.reason == "NecessaryFails", (name, result)
        # Neuts' drift test in the exact solve is the independent verdict
        assert ergodic == certified, name


# catalog models with every rate a multiple of the scale c
SCALED_CATALOG = {
    "mm1_plain": lambda c: mm1_plain(lam=1 * c, mu=2 * c),
    "mm1_plain_unstable": lambda c: mm1_plain(lam=2 * c, mu=1 * c),
    "base_stock_b2": lambda c: base_stock(lam=1 * c, mu=2 * c, nu=1 * c, b=2),
    "base_stock_b5": lambda c: base_stock(lam=1 * c, mu=2 * c, nu=1 * c, b=5),
    "onoff_a": lambda c: onoff_a(eta=1 * c, gamma=2 * c, lam=0.5 * c, mu=2 * c),
    "onoff_b": lambda c: onoff_b(lam=0.1 * c, gamma=1 * c, eta=2 * c, mu=2 * c),
    "perishable_minus": lambda c: perishable_minus(lam=1 * c, mu=2 * c, nu=1 * c, gamma=1 * c, b=2),
    "perishable_o": lambda c: perishable_o(lam=1 * c, mu=2 * c, nu=1 * c, gamma=2 * c, b=2),
    "perishable_plus": lambda c: perishable_plus(lam=1 * c, mu=2 * c, nu=1 * c, gamma=1 * c, b=2),
}
BOUND_TRIPLES = [(1, mu, 1, gamma, b) for mu in (1.5, 2) for gamma in (0.5, 1.5, 2) for b in (2, 3)]


def verdict(answer):
    try:
        return answer()
    except EnvqueueError as exc:
        return type(exc).__name__


def scaled_verdicts(c):
    """Every verdict on the models above, with all rates multiplied by c."""
    out = {}
    for name, build in SCALED_CATALOG.items():
        model = build(c)
        out[name, "separable"] = verdict(lambda: product_form(model).separable)
        for kind in ("linear_drift", "hitting_time"):
            out[name, kind] = verdict(lambda: certify(model, kind=kind).certified)
        out[name, "ergodic"] = verdict(lambda: exact_solve(model) is not None)
    for lam, mu, nu, gamma, b in BOUND_TRIPLES:
        out["bounds", lam, mu, nu, gamma, b] = verdict(
            lambda: bound_report(lam * c, mu * c, nu * c, gamma * c, b).ordering_holds)
    out["sweep"] = verdict(lambda: len(gamma_sweep(c, 2 * c, c, 2, c * np.linspace(0.1, 2, 10))))
    return out


def test_no_verdict_depends_on_the_time_unit():
    # scaling every rate by c leaves the stationary distribution unchanged; with absolute tolerances,
    # perishable_o read separable at 1e-12 and the bound systems not separable at 1e6 and above
    expected = scaled_verdicts(1.0)
    assert len(expected) == 49
    assert expected["perishable_o", "separable"] is False and expected["base_stock_b5", "separable"] is True
    for c in (1e-12, 1e6, 1e9, 1e12):
        got = scaled_verdicts(c)
        assert {key: got[key] for key in expected if got[key] != expected[key]} == {}, c
