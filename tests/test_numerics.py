"""Truncated and exact stationary solves, metrics, cut identity."""

import csv
import hashlib
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from envqueue import numerics, separability
from envqueue.catalog import (
    base_stock,
    mm1_plain,
    onoff_a,
    onoff_b,
    perishable_minus,
    perishable_o,
    perishable_plus,
)
from envqueue.cli import EXIT_OK, main
from envqueue.model import EnvironmentSpec, JointModel, RateFamily
from envqueue.numerics import (
    NotErgodic,
    auto_truncate,
    check_cut_structure,
    exact_solve,
    export_csv,
    metrics,
    solve_truncated,
)
from envqueue.separability import ProductFormResult, SingularSolve, product_form

from conftest import (count_forks, first_level_below, listed_by_products, period_two_model, poisson_oracle,
                      reference_blocks, separable_period_two_model, skewed_period_two_model, traced_peak,
                      truncated_generator)


def product_form_tv(model, sol, levels=None):
    """Total variation between truncated solve and exact product form."""
    pf = product_form(model)
    levels = levels if levels is not None else sol.N + 1
    tv = 0.0
    for n in range(levels):
        tv += np.abs(sol.pi[n] - pf.level_vector(n)).sum()
    return 0.5 * tv


class TestBuildGenerator:
    def test_conservative(self, per_o_b2):
        Q = truncated_generator(per_o_b2, 30)
        assert np.abs(Q.sum(axis=1)).max() < 1e-12

    def test_cap_is_reflecting(self, bs_model):
        N = 10
        Q = truncated_generator(bs_model, N)
        m = bs_model.n_env
        # no transition leaves the rectangle: rows at the cap level have no
        # mass beyond index (N+1)*m
        assert Q.shape == ((N + 1) * m, (N + 1) * m)
        top = Q[N * m :, :]
        # arrivals switched off at the cap: outflow from cap goes only down/env
        assert np.abs(top.sum(axis=1)).max() < 1e-12


class TestSolveTruncated:
    def test_mm1_geometric(self, mm1_model):
        sol = solve_truncated(mm1_model, 200)
        rho = 0.5
        expect = (1 - rho) * rho ** np.arange(201)
        assert np.abs(sol.pi[:, 0] - expect).max() < 1e-12

    def test_base_stock_matches_product_form(self, bs_model):
        sol = solve_truncated(bs_model, 200)
        assert product_form_tv(bs_model, sol) < 1e-8

    def test_residual_small(self, per_o_b2):
        sol = solve_truncated(per_o_b2, 80)
        assert sol.residual < 1e-10

    def test_upward_drift_stays_conservative(self):
        # lam > mu: the capped chain piles up at the cap, and the elimination
        # sweep must not lose mass on its way down to level 0
        V = np.array([[-0.9, 0.9], [0.2, -0.2]])
        R = np.array([[0.5, 0.5], [0.45, 0.55]])
        model = JointModel(rates=RateFamily.constant(1.0, 0.5), env=EnvironmentSpec.constant((0, 1), (), V, R))
        sol = solve_truncated(model, 300)
        assert sol.residual < 1e-12
        assert sol.pi[250:].sum() > 0.99

    def test_blockwise_residual_is_generator_residual(self, per_o_b2):
        # on a vector far from stationary, so the defect is not round-off
        from envqueue.numerics import _balance_residual, _capped_classes

        N = 40
        pi = np.random.default_rng(1).uniform(size=(N + 1, per_o_b2.n_env))
        dense = np.abs(pi.reshape(-1) @ truncated_generator(per_o_b2, N)).max()
        blockwise, _ = _balance_residual(pi, *reference_blocks(per_o_b2, N), _capped_classes(per_o_b2, N), N + 1)
        assert blockwise == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("make_model", [lambda: perishable_o(lam=1.0, mu=2.0, nu=1.0, gamma=1.0, b=2),
                                            period_two_model], ids=["perishable_o", "period_two"])
    def test_residual_windows_do_not_change_it(self, make_model, monkeypatch):
        from envqueue import model
        from envqueue.numerics import _balance_residual, _capped_classes

        N = 40
        jm = make_model()
        pi = np.random.default_rng(2).uniform(size=(N + 1, jm.n_env))
        blocks = (*reference_blocks(jm, N), _capped_classes(jm, N))
        # rows = N: pi holds one level more, which feeds the last row
        whole = [_balance_residual(pi, *blocks, rows) for rows in (N + 1, N)]
        for window in (1, 2, 7):
            monkeypatch.setattr(model, "LEVEL_WINDOW", window)
            assert [_balance_residual(pi, *blocks, rows) for rows in (N + 1, N)] == whole

    def test_normalized_nonnegative(self, per_o_b2):
        sol = solve_truncated(per_o_b2, 80)
        assert sol.pi.min() >= 0.0
        assert sol.pi.sum() == pytest.approx(1.0, abs=1e-12)


class TestMetrics:
    def test_base_stock_throughput(self, bs_model):
        sol = solve_truncated(bs_model, 200)
        m = metrics(sol, bs_model)
        assert m.throughput == pytest.approx(2 / 3, abs=1e-9)
        assert m.blocked_probability == pytest.approx(1 / 3, abs=1e-9)
        assert m.loss_rate == pytest.approx(1 / 3, abs=1e-9)

    def test_mm1_mean_queue(self, mm1_model):
        sol = solve_truncated(mm1_model, 200)
        m = metrics(sol, mm1_model)
        rho = 0.5
        assert m.mean_queue_length == pytest.approx(rho / (1 - rho), abs=1e-9)
        assert m.throughput == pytest.approx(1.0, abs=1e-9)
        assert m.blocked_probability == 0.0

    def test_throughput_equals_effective_arrival(self, per_o_b2):
        # flow balance: departures = arrivals seen in working states
        sol = solve_truncated(per_o_b2, 120)
        m = metrics(sol, per_o_b2)
        working = per_o_b2.env.working_mask()
        lam_eff = float(sol.pi[:, working].sum() * 1.0)  # lam = 1 constant
        # small slack: the cap level loses one arrival stream
        assert m.throughput == pytest.approx(lam_eff, abs=1e-10)


class TestCutIdentity:
    @pytest.mark.parametrize(
        "model_builder",
        [
            lambda: mm1_plain(lam=1, mu=2),
            lambda: base_stock(lam=1, mu=2, nu=1, b=2),
            lambda: onoff_a(eta=1.0, gamma=2.0, lam=0.5, mu=2.0),
            lambda: perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2),
        ],
    )
    def test_holds_on_interior(self, model_builder):
        model = model_builder()
        sol = solve_truncated(model, 150)
        cut = check_cut_structure(sol, model)
        assert cut.passed, (cut.worst_relative, cut.worst_level)
        assert cut.worst_relative < 1e-8

    @pytest.mark.parametrize("N", [3, 9, 10, 150])
    def test_levels_checked_exclude_the_top_tenth(self, bs_model, N):
        sol = solve_truncated(bs_model, N)
        assert check_cut_structure(sol, bs_model).levels_checked == N - max(N // 10, 1)


class TestAutoTruncate:
    def test_converges_fast(self, bs_model):
        sol = auto_truncate(bs_model, tol=1e-9)
        assert sol.N <= 128
        m = metrics(sol, bs_model)
        assert m.throughput == pytest.approx(2 / 3, abs=1e-12)
        assert sol.residual <= 1e-12

    def test_not_ergodic_detected(self):
        # transient (lam > mu) and null recurrent (lam = mu) tails
        with pytest.raises(NotErgodic):
            auto_truncate(mm1_plain(lam=1.2, mu=1.0))
        with pytest.raises(NotErgodic):
            auto_truncate(mm1_plain(lam=1.0, mu=1.0))

    def test_heavy_traffic_base_stock(self):
        # ergodic, with product form TH = lam (1 - theta(0))
        model = base_stock(lam=0.999, mu=1.0, nu=3.0, b=5)
        sol = auto_truncate(model)
        assert metrics(sol, model).throughput == pytest.approx(0.9962678467, abs=1e-9)

    @pytest.mark.parametrize("model", [
        base_stock(lam=0.9999, mu=1.0, nu=3.0, b=5),
        perishable_o(lam=0.9999, mu=1.0, nu=3.0, gamma=1.0, b=5),
    ], ids=["product_form", "exact"])
    def test_listing_held_once(self, model):
        # N = 207,222, a 9.5 MB listing on either path: normalising a copy peaked at 2.0 times its bytes, in
        # place at 1.52; a listing grown in chunks and then concatenated, at 2.03
        peak = traced_peak(auto_truncate, model)
        assert peak <= 1.6 * auto_truncate(model).pi.nbytes

    def test_exact_listing_refused_past_its_bound(self, monkeypatch):
        # round-off could put the exact mass above a level over c xi's; a listing that finds no level
        # below tol within its allocation is refused, not overrun
        monkeypatch.setattr(numerics, "_blocked_excess", lambda *args: 0.5)
        with pytest.raises(ValueError, match=r"^the listing to tol = 1e-09 finds no level below tol by N = \d+$"):
            auto_truncate(perishable_o(lam=0.9, mu=1.0, nu=3.0, gamma=1.0, b=5))

    def test_blocked_excess_pairs_tail_positions(self):
        # xi sits on one tail position's levels; the blocked mass a level m adds above n comes from c1
        # of m's position and c2 of the position before it, so c = 1 + 1 + 1, where pairing c1 and c2
        # of one position gives 2 and a listing sized by it finds no level below tol
        model = skewed_period_two_model()
        B, _, D = numerics._blocks(model)
        assert numerics._blocked_excess(model, B, D) == 3.0
        sol = auto_truncate(model)
        # pinned at the listing grown in chunks until it found N
        assert (sol.N, sol.truncation_estimate.hex(), sol.residual.hex()) == (
            195, "0x1.0edd54b517c1dp-30", "0x1.0a23f5afe6fecp-63")
        levels = np.arange(model.tail_start + model.period, sol.N + 1)
        mass = sol.pi.sum(axis=1) * (1.0 - sol.truncation_estimate)
        above = sol.truncation_estimate + np.append(np.cumsum(mass[::-1])[::-1], 0.0)[levels + 1]
        bound = 3.0 * separability.queue_marginal(model).mass_above(levels)
        assert np.all(above <= bound) and above.max() / bound.max() > 0.9  # the bound is close to tight here

    def test_exact_listing_answers_past_a_tight_bound(self):
        # no state is blocked, so c = 1 is exact: xi's mass above level 2 is 0.4^3, the listed one lies 4 ulp
        # above it, and a tol between the two puts N one level past N_max = 2
        model = mm1_plain(lam=0.4, mu=1.0)
        tol = float.fromhex("0x1.0624dd2f1a9ffp-4")
        assert numerics._listing_level(model, separability.queue_marginal(model), 1.0, tol)[0] == 2
        _, mass_above, N = numerics._list_levels(model, exact_solve(model), numerics._blocks(model), tol)
        assert N == 3 and mass_above < tol

    def test_N_is_first_level_below_tol(self, per_o_b2):
        tol = 1e-9
        sol = auto_truncate(per_o_b2, tol=tol)
        assert sol.truncation_estimate < tol
        assert sol.pi.sum() == pytest.approx(1.0, abs=1e-14)
        # mass above N - 1 is the listed top level plus the mass above N
        exact_top = sol.pi[sol.N].sum() * (1.0 - sol.truncation_estimate)
        assert exact_top + sol.truncation_estimate >= tol

    @pytest.mark.parametrize(
        "model",
        [
            perishable_o(lam=0.9, mu=1.0, nu=3.0, gamma=1.0, b=5),
            perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=20),
        ],
        ids=["rho0.9_b5", "b20"],
    )
    def test_perishable_o_matches_truncation(self, model):
        exact = auto_truncate(model)
        trunc = solve_truncated(model, 800)
        a, b = metrics(exact, model), metrics(trunc, model)
        for field in ("throughput", "mean_queue_length", "blocked_probability", "loss_rate"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-10), field
        # the listed levels are renormalized over 0..N
        scale = 1.0 - exact.truncation_estimate
        assert np.abs(exact.pi * scale - trunc.pi[: exact.N + 1]).max() < 1e-10

    def test_period_two_with_prefix_matches_truncation(self):
        model = period_two_model()
        exact = auto_truncate(model)
        trunc = solve_truncated(model, 600)
        a, b = metrics(exact, model), metrics(trunc, model)
        for field in ("throughput", "mean_queue_length", "blocked_probability", "loss_rate"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-10), field
        scale = 1.0 - exact.truncation_estimate
        assert np.abs(exact.pi * scale - trunc.pi[: exact.N + 1]).max() < 1e-10
        assert exact.residual <= 1e-12
        assert check_cut_structure(exact, model).passed


@pytest.mark.parametrize("blocked, V, reason, error", [
    # no state is working: every level is closed, and the verdict refuses the model before its product form
    ((0, 1), [[-1.0, 1.0], [1.0, -1.0]], ("NoWorkingState", "no environment state is working"), NotErgodic),
    # two working states that never switch: xi theta is one stationary law of several, and answers nothing
    ((), [[0.0, 0.0], [0.0, 0.0]], ("SeveralClosedClasses", "2 closed classes; one holds [(0, 0), (1, 0)]"),
     NotErgodic),
    # blocked 0 moves to working 1, which is never left: xi theta is the one law, but the chain is not
    # irreducible, so the exact path answers, and its GTH finds the chain censored to level 0 reducible
    ((0,), [[-1.0, 1.0], [0.0, 0.0]], None, SingularSolve),
], ids=["all_blocked", "split", "island"])
def test_reducible_separable_model_takes_the_exact_path(blocked, V, reason, error):
    env = EnvironmentSpec.constant(labels=(0, 1), blocked=blocked, V=np.array(V), R=np.eye(2))
    model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env)
    pf = product_form(model)
    if reason is None:
        assert pf.separable and not pf.irreducible
    else:
        assert (pf.reason, pf.detail) == reason
    with pytest.raises(error):
        auto_truncate(model)


def test_one_marginal_per_exact_solve(monkeypatch):
    # product_form reads the isolated queue's marginal, and so does the exact solve, whose tail carries it to
    # the listing's bound
    calls, marginal = [], separability.queue_marginal
    for module in (separability, numerics):
        monkeypatch.setattr(module, "queue_marginal", lambda model: calls.append(model) or marginal(model))
    model = perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=20)
    sol = auto_truncate(model)
    assert type(sol.tail) is numerics.GeometricTail and sol.tail.marginal.verdict is None
    assert calls == [model, model]


@pytest.mark.parametrize("model, path", [
    (base_stock(lam=1.0, mu=2.0, nu=10.0, b=20), ProductFormResult),
    (perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=20), numerics.GeometricTail),
    (perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=100), numerics.GeometricTail),
], ids=["base_stock", "perishable_o", "perishable_o_b100"])
def test_one_set_of_blocks_per_solve(model, path, monkeypatch):
    built, blocks = [], numerics._blocks
    monkeypatch.setattr(numerics, "_blocks", lambda *args: built.append(args) or blocks(*args))
    monkeypatch.setattr(separability, "_blocks", lambda *args: pytest.fail("product_form built its own blocks"))
    sol = auto_truncate(model)
    assert type(sol.tail) is path
    assert len(built) == 1
    # N = 29 on each path, and the listing is allocated once, to its closed-form bound: not T0 + 256 rows
    assert sol.N == 29 and len(sol.pi.base) < 40


LISTED_MODELS = {
    "mm1_plain": mm1_plain(lam=1.0, mu=2.0),
    "onoff_a": onoff_a(eta=0.5, gamma=1.0),
    "onoff_b": onoff_b(lam=0.2, gamma=1.0, eta=2.0),
    "period_two": period_two_model(),
    "base_stock_rho0.999_b5": base_stock(lam=0.999, mu=1.0, nu=3.0, b=5),  # ~20,000 block levels
    **{f"base_stock_b{b}": base_stock(lam=1.0, mu=2.0, nu=3.0, b=b) for b in (2, 5, 50, 100)},
    **{f"{build.__name__}_b{b}": build(lam=1.0, mu=2.0, nu=3.0, gamma=1.0, b=b)
       for build in (perishable_o, perishable_minus, perishable_plus) for b in (2, 5, 50, 100)},
}


@pytest.mark.parametrize("name", LISTED_MODELS)
def test_listing_is_bit_identical_to_products(name):
    model = LISTED_MODELS[name]
    tail = exact_solve(model)
    exact, _, _ = numerics._list_levels(model, tail, numerics._blocks(model), 1e-9)
    assert exact.tobytes() == listed_by_products(tail, len(exact)).tobytes()


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("name", LISTED_MODELS)
def test_listing_sums_the_mass_above_from_the_top(name, tol):
    # the mass above N and N itself, against the products listed on and summed exactly from the top
    model = LISTED_MODELS[name]
    tail = exact_solve(model)
    _, mass_above, N = numerics._list_levels(model, tail, numerics._blocks(model), tol)
    N_ref, mass_ref = first_level_below(model, tail, tol)
    assert N == N_ref and mass_above == pytest.approx(mass_ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu", [0.7, 3.0, 7.0])
def test_product_form_listing_at_a_large_tol_near_r_1(mu):
    # 1 - r = 1e-13: the listed masses fall by the rounded r, and a count of periods read
    # from 1 - r instead stopped the scan short of tol (an IndexError at tol = 1 - 1e-9)
    model = mm1_plain(lam=mu * (1.0 - 1e-13), mu=mu)
    sol = auto_truncate(model, tol=1.0 - 1e-9)
    assert sol.truncation_estimate < 1.0 - 1e-9 <= float(separability.queue_marginal(model).mass_above(sol.N - 1))


def test_product_form_listing_refused_where_r_rounds_to_1():
    # r = (1 + 2e) / (1 + e)^2 = 1 - e^2 / (1 + e)^2 for e = 2^-52: summable, but r rounds to 1.0,
    # so the listed masses never fall
    e = 2.0**-52
    env = EnvironmentSpec.constant(labels=(0,), blocked=(), V=np.zeros((1, 1)), R=np.ones((1, 1)))
    model = JointModel(rates=RateFamily(lambda_tail=(1.0 + 2 * e, 1.0), mu_tail=(1.0 + e, 1.0 + e)), env=env)
    marginal = separability.queue_marginal(model)
    assert marginal.summable and marginal.tail_ratio == 1.0 and 0.0 < marginal.gap < 1e-31
    with pytest.raises(ValueError, match=r"^the listing to tol = 1e-09 needs N ~ \d+, more than"):
        auto_truncate(model)


# separable models with tail ratio rho, built from (rho, nu, gamma, b)
SEPARABLE = {
    "base_stock": lambda rho, nu, gamma, b: base_stock(lam=rho, mu=1.0, nu=nu, b=b),
    "perishable_minus": lambda rho, nu, gamma, b: perishable_minus(lam=rho, mu=1.0, nu=nu, gamma=gamma, b=b),
    "perishable_plus": lambda rho, nu, gamma, b: perishable_plus(lam=rho, mu=1.0, nu=nu, gamma=gamma, b=b),
    # prefix 8 with lambda(n) = lam (n + 1), then lambda = 9 lam against mu = 2
    "onoff_b": lambda rho, nu, gamma, b: onoff_b(lam=2.0 * rho / 9.0, gamma=gamma, eta=nu),
    "separable_period_two": lambda rho, nu, gamma, b: separable_period_two_model(rho),
}


@given(
    kind=st.sampled_from(sorted(SEPARABLE)),
    rho=st.floats(0.95, 0.99999),
    nu=st.floats(0.5, 5.0),
    gamma=st.floats(0.1, 3.0),
    b=st.integers(1, 50),
)
@settings(max_examples=40, deadline=None)
# unshifted, logarithmic reduction left G's row sums 1.0e-10 off 1 here and raised NotConvergent
@example(kind="separable_period_two", rho=0.99999, nu=1.0, gamma=1.0, b=1)
def test_exact_solve_matches_product_form_in_heavy_traffic(kind, rho, nu, gamma, b):
    model = SEPARABLE[kind](rho, nu, gamma, b)
    pf, exact = metrics(product_form(model), model), metrics(exact_solve(model), model)
    for field in ("throughput", "blocked_probability", "loss_rate"):
        assert getattr(exact, field) == pytest.approx(getattr(pf, field), abs=1e-10), field
    assert exact.mean_queue_length == pytest.approx(pf.mean_queue_length, rel=1e-12)


@pytest.mark.parametrize("k", range(1, 16))
def test_exact_solve_to_the_last_digit_near_rho_1(k):
    # lam = 1 - 10^-k: the tail sums come through the time change, with no solve by I - R, whose
    # condition grows like 1 / (1 - r); through (I - R)^{-1} TH was 1.9e-11 off at k = 6 on base stock
    lam = 1.0 - 10.0**-k
    for model in (base_stock(lam=lam, mu=1.0, nu=3.0, b=5), perishable_plus(lam=lam, mu=1.0, nu=3.0, gamma=1.0, b=5)):
        exact, pf = metrics(exact_solve(model), model), metrics(product_form(model), model)
        for field in ("throughput", "mean_queue_length", "blocked_probability"):
            assert getattr(exact, field) == pytest.approx(getattr(pf, field), rel=1e-13, abs=0), (model.name, field)
    # perishable_o at mu = gamma: its stock moves on its own, so TH = lam (1 - theta(0)) and P(blocked) = theta(0)
    model = perishable_o(lam=lam, mu=1.0, nu=3.0, gamma=1.0, b=5)
    exact, (th, theta0) = metrics(exact_solve(model), model), poisson_oracle(lam, 1.0, 3.0, 5)
    assert exact.throughput == pytest.approx(th, rel=1e-13, abs=0)
    assert exact.blocked_probability == pytest.approx(theta0, rel=1e-13, abs=0)


@pytest.mark.parametrize("b", [320, 400])
def test_exact_solve_matches_product_form_on_large_environments(b):
    # theta spans more than the float range: unscaled, GTH overflowed to nan and the mean-drift
    # test called the model not ergodic
    model = base_stock(lam=0.9, mu=1.0, nu=10.0, b=b)
    pf, exact = metrics(product_form(model), model), metrics(exact_solve(model), model)
    assert exact.throughput == pytest.approx(pf.throughput, abs=1e-14)
    assert pf.throughput == pytest.approx(0.9, abs=1e-14)


@given(
    kind=st.sampled_from(["base_stock", "perishable_minus", "perishable_plus"]),
    rho=st.floats(0.05, 0.99),
    nu=st.floats(0.01, 100.0),  # nu / mu, as mu = 1
    gamma=st.floats(0.1, 3.0),
    b=st.integers(1, 600),
)
# exact_solve grows like (b + 1)^3 and takes ~2 s at b = 600, so the budget is a few draws
@settings(max_examples=4, deadline=None)
def test_exact_solve_matches_product_form_up_to_b_600(kind, rho, nu, gamma, b):
    # at large b, theta can span more than the float range; the largest throughput gap
    # in 14 draws from these ranges, 3 of them at b = 600 and nu = 100, was 7.8e-14 relative
    model = SEPARABLE[kind](rho, nu, gamma, b)
    pf, exact = product_form(model), exact_solve(model)
    assert np.isfinite(pf.theta).all()
    assert np.isfinite(exact.level_sums()[1]).all()
    assert metrics(exact, model).throughput == pytest.approx(metrics(pf, model).throughput, rel=1e-12)


@pytest.mark.parametrize("model", [mm1_plain(lam=1, mu=2), base_stock(lam=1, mu=2, nu=1, b=2), period_two_model()],
                         ids=["mm1", "base_stock", "period_two_prefix"])
def test_level_rates_match_per_level_rates(model):
    from envqueue.numerics import _level_rates

    levels = np.arange(40)
    lam, mu = _level_rates(model, levels)
    assert lam.tolist() == [model.arrival(n) for n in levels]
    assert mu.tolist() == [model.service(n) for n in levels]


class TestExportCsv:
    def test_round_trip(self, bs_model, tmp_path):
        sol = solve_truncated(bs_model, 20)
        path = tmp_path / "stationary.csv"
        export_csv(sol, bs_model, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,k,pi"
        assert len(lines) == 1 + 21 * 3
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_windows_do_not_change_bytes(self, per_o_b2, tmp_path, monkeypatch):
        sol = solve_truncated(per_o_b2, 30)
        export_csv(sol, per_o_b2, tmp_path / "whole.csv")
        monkeypatch.setattr(numerics, "LEVEL_WINDOW", 4)
        export_csv(sol, per_o_b2, tmp_path / "windows.csv")
        assert (tmp_path / "windows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_matches_per_row_format(self, tmp_path, monkeypatch):
        # labels with `%` in them, and windows that cut the levels unevenly
        V = np.array([[-1.0, 0.5, 0.5], [2.0, -3.0, 1.0], [0.25, 0.25, -0.5]])
        env = EnvironmentSpec.constant(labels=("50%", "%d%%", 7), blocked=("50%",), V=V, R=np.eye(3))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env)
        sol = solve_truncated(model, 40)
        monkeypatch.setattr(numerics, "LEVEL_WINDOW", 7)
        export_csv(sol, model, tmp_path / "stationary.csv")
        expected = "n,k,pi\n" + "".join(f"{n},{label},{value:.17g}\n" for n, row in enumerate(sol.pi.tolist())
                                        for label, value in zip(env.labels, row))
        assert (tmp_path / "stationary.csv").read_bytes() == expected.encode()

    def test_labels_read_back_by_csv_reader(self, tmp_path):
        labels = ("on,fast", 'off"x', "a\r\nb", "50%,", 7)
        V = np.ones((5, 5)) - 5 * np.eye(5)
        env = EnvironmentSpec.constant(labels=labels, blocked=(), V=V, R=np.eye(5))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env)
        sol = solve_truncated(model, 3)
        export_csv(sol, model, tmp_path / "stationary.csv")
        with open(tmp_path / "stationary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "k", "pi"]
        assert len(rows) == 1 + 4 * len(labels)
        assert all(len(row) == 3 for row in rows)
        assert [row[1] for row in rows[1:]] == [str(label) for label in labels] * 4
        assert [float(row[2]) for row in rows[1:]] == sol.pi.ravel().tolist()

    def test_quoted_labels_and_mid_file_windows_match_the_template(self, tmp_path, monkeypatch):
        # labels to quote or holding `%`, levels 0..120 whose width grows at 10 and 100, windows of 7 levels
        labels = ("a%d", "x,y", 'q"t', "c\rr", "l\nf", "%%")
        V = np.ones((6, 6)) - 6 * np.eye(6)
        env = EnvironmentSpec.constant(labels=labels, blocked=("a%d",), V=V, R=np.eye(6))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env)
        sol = solve_truncated(model, 120)
        monkeypatch.setattr(numerics, "LEVEL_WINDOW", 7)
        assert export_csv(sol, model, tmp_path / "stationary.csv") == 0
        quoted = ("a%d", '"x,y"', '"q""t"', '"c\rr"', '"l\nf"', "%%")
        expected = "n,k,pi\n" + "".join(f"{n},{label},{value:.17g}\n" for n, row in enumerate(sol.pi.tolist())
                                        for label, value in zip(quoted, row))
        assert (tmp_path / "stationary.csv").read_bytes() == expected.encode()

    def test_exact_zeros_and_ones_use_the_template(self, tmp_path):
        # state 2 is never entered: its column is exactly zero, and `%.17g` writes each as 0
        V = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        env = EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(), V=V, R=np.eye(3))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env)
        sol = solve_truncated(model, 30)
        assert (sol.pi[:, 2] == 0.0).all()
        assert export_csv(sol, model, tmp_path / "stationary.csv") == 31
        expected = "n,k,pi\n" + "".join(f"{n},{k},{value:.17g}\n" for n, row in enumerate(sol.pi.tolist())
                                        for k, value in enumerate(row))
        assert (tmp_path / "stationary.csv").read_bytes() == expected.encode()


# `stationary.csv` of `solve`: values, the SHA-256 of the `%` template's bytes, and the truncation estimate and
# residual as `float.hex()`.  Base stock is listed from its product form, the others from the exact solve: two
# heavy-traffic points, the large-environment points of the benchmark, and a period-2 tail with a blocked state.
HEAVY_TRAFFIC_EXPORTS = {
    "base_stock_rho0.999": (base_stock(lam=0.999, mu=1.0, nu=3.0, b=5), 124_278,
                            "af21c84f8dc8745ef686503714451338d9f2db631d41c11a1e2a198580801ac0",
                            "0x1.12d9e0e253505p-30", "0x1.8000000000000p-62"),
    "perishable_o_rho0.99": (perishable_o(lam=0.99, mu=1.0, nu=3.0, gamma=1.0, b=5), 12_372,
                             "4369998ead255d4dcd23bd6db46a25df5cd1926ce6c88037f266c80a182f6e39",
                             "0x1.127ad26aa5953p-30", "0x1.3000000000000p-58"),
    "perishable_o_b50": (perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=50), 1_530,
                         "ffe8c9d7c9cf35a65a2c3310bb3930110fa601cc12208dd904d7cd9bcc990f17",
                         "0x1.fd6a857ad5372p-31", "0x1.7c00000000000p-50"),
    "perishable_o_b100": (perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=100), 3_030,
                          "28b8b047058dbe3c3c6628eabd94cae004a83864c23e252b643dfdfb6dfd2226",
                          "0x1.fd6a857ad53ccp-31", "0x1.0800000000000p-50"),
    "period_two": (period_two_model(), 90, "624fe1bb5c0725de46d96514916e6e4f46b755d6946598b3991ab5b0ae911488",
                   "0x1.99dd694b4580dp-31", "0x1.0800000000000p-52"),
}


@pytest.mark.parametrize("name", HEAVY_TRAFFIC_EXPORTS)
def test_heavy_traffic_export_digest(name, tmp_path):
    model, values, digest, estimate, residual = HEAVY_TRAFFIC_EXPORTS[name]
    sol = auto_truncate(model)
    assert sol.pi.size == values
    assert (sol.truncation_estimate.hex(), sol.residual.hex()) == (estimate, residual)
    templated = export_csv(sol, model, tmp_path / "stationary.csv")
    assert hashlib.sha256((tmp_path / "stationary.csv").read_bytes()).hexdigest() == digest
    # a kernel that left every value to the `%` template would write the same bytes, only slower
    assert templated <= values // 1000


def test_heavy_traffic_solve_writes_in_one_process(tmp_path, monkeypatch):
    # 124,278 values at rho = 0.999 on a two-CPU mask: the export forks nothing and leaves no other file
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    argv = ["solve", "--catalog", "base_stock", "--lambda", "0.999", "--mu", "1", "--nu", "3", "--b", "5",
            "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert not forks
    assert sorted(os.listdir(tmp_path)) == ["manifest.txt", "metrics.json", "stationary.csv"]
