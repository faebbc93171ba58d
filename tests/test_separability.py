"""Product-form decision: reduced generators, theta, queue marginal."""

import json
import math

import numpy as np
import pytest

from envqueue import separability
from envqueue.catalog import base_stock, mm1_plain, onoff_a, onoff_b, perishable_o, perishable_plus
from envqueue.cli import EXIT_OK, main
from envqueue.model import EnvironmentSpec, JointModel, RateFamily
from envqueue.modelfile import model_from_dict
from envqueue.numerics import exact_solve, metrics
from envqueue.separability import (
    NoCommonSolution,
    NotSeparable,
    ProductFormResult,
    ThetaSolution,
    gth_stationary,
    product_form,
    queue_marginal,
    reduced_generator,
    separability_report,
    solve_theta,
)

from conftest import separable_period_two_model, two_state_model


def full_update_gth(Q):
    """GTH with the whole rank-one update of every elimination step: the reference for
    `gth_stationary`, which updates only the box the step's nonzero entries reach."""
    A = np.array(Q, dtype=float)
    m = A.shape[0]
    np.fill_diagonal(A, 0.0)
    for j in range(m - 1, 0, -1):
        s = A[j, :j].sum()
        if s <= 0.0:
            raise separability.SingularSolve(f"no exit below state {j}: chain not irreducible")
        A[:j, :j] += np.outer(A[:j, j], A[j, :j]) / s
    x = np.zeros(m)
    x[0] = 1.0
    for j in range(1, m):
        x[j] = x[:j] @ A[:j, j] / A[j, :j].sum()
        if x[j] > 1e250:
            x[: j + 1] /= x[j]
    return x / x.sum()


class TestGTH:
    def test_two_state(self):
        Q = np.array([[-1.0, 1.0], [3.0, -3.0]])
        pi = gth_stationary(Q)
        assert np.allclose(pi, [0.75, 0.25], atol=1e-14)

    def test_uniform_cycle(self):
        m = 5
        Q = np.zeros((m, m))
        for i in range(m):
            Q[i, (i + 1) % m] = 2.0
            Q[i, i] = -2.0
        pi = gth_stationary(Q)
        assert np.allclose(pi, 1.0 / m, atol=1e-14)

    def test_random_generator_matches_nullspace(self):
        rng = np.random.default_rng(7)
        A = rng.random((6, 6))
        np.fill_diagonal(A, 0.0)
        Q = A - np.diag(A.sum(axis=1))
        pi = gth_stationary(Q)
        assert pi.min() > 0
        assert abs(pi.sum() - 1.0) < 1e-14
        assert np.abs(pi @ Q).max() < 1e-12

    def test_spans_more_than_the_float_range(self):
        # birth-death chain whose probabilities grow 100-fold a state: 400 states span 800 decades
        m = 400
        Q = np.diag(np.full(m - 1, 100.0), 1) + np.diag(np.ones(m - 1), -1)
        Q -= np.diag(Q.sum(axis=1))
        pi = gth_stationary(Q)
        assert np.isfinite(pi).all()
        assert pi[-1] == pytest.approx(0.99, rel=1e-12)
        assert pi[-100:-1] / pi[-99:] == pytest.approx(np.full(99, 0.01), rel=1e-12)

    def test_one_step_past_the_float_range(self):
        # x(1) = 1e199 / 1e-200 overflows: the partial vector is rescaled first, and x(0) falls below the float range
        assert gth_stationary(np.array([[-1e199, 1e199], [1e-200, -1e-200]])).tolist() == [0.0, 1.0]

    def test_non_finite_raises(self):
        with pytest.raises(separability.SingularSolve, match="not finite"):
            gth_stationary(np.array([[-1.0, 1.0], [np.nan, np.nan]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_boxes_give_the_full_update_bit_for_bit(self, seed):
        # dense, sparse and banded generators, the reducible ones raising with the same message
        rng = np.random.default_rng(seed)
        Qs = [reduced_generator(build(lam=0.9, mu=1.0, nu=10.0, gamma=1.0, b=b), 0)
              for build in (perishable_o, perishable_plus) for b in (5, 60)]
        for _ in range(200):
            m = int(rng.integers(1, 12))
            Q = rng.uniform(0.0, 3.0, (m, m)) * (rng.random((m, m)) < rng.uniform(0.1, 1.0))
            np.fill_diagonal(Q, 0.0)
            Qs.append(Q - np.diag(Q.sum(axis=1)))
        for Q in Qs:
            outcomes = []
            for solve in (gth_stationary, full_update_gth):
                try:
                    outcomes.append(solve(Q).tobytes())
                except separability.SingularSolve as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


class TestReducedGenerator:
    def test_base_stock_entries(self, bs_model):
        # off-diagonal: lam * R_{n+1}(k, m) * 1{k working} + v_n(k, m)
        Qr = reduced_generator(bs_model, 3)
        assert Qr[0, 1] == 1.0  # replenishment only (0 is blocked)
        assert Qr[1, 0] == 1.0  # lam * R(1, 0) = 1
        assert Qr[1, 2] == 1.0  # replenishment
        assert Qr[2, 1] == 1.0  # lam * R(2, 1) = 1
        assert np.abs(Qr.sum(axis=1)).max() < 1e-14

    def test_row_sums_zero(self, per_o_b2):
        for n in per_o_b2.representative_levels():
            Qr = reduced_generator(per_o_b2, n)
            assert np.abs(Qr.sum(axis=1)).max() < 1e-12

    def test_identity_jump_reduces_to_V(self):
        model = two_state_model(blocked=())
        # R = I contributes only to the diagonal-free part trivially:
        # lam * I off-diagonal is zero, so Qred(n) = V(n)
        for n in range(3):
            assert np.allclose(reduced_generator(model, n), model.V(n))


class TestSolveTheta:
    def test_base_stock_uniform(self, bs_model):
        res = solve_theta(bs_model)
        assert res.found
        assert np.allclose(res.theta, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_onoff_a_closed_form(self):
        eta, gamma = 0.7, 1.3
        res = solve_theta(onoff_a(eta=eta, gamma=gamma))
        assert res.found
        expect = np.array([gamma, eta]) / (gamma + eta)
        assert np.abs(res.theta - expect).max() < 1e-12

    def test_onoff_b_closed_form(self):
        lam, gamma, eta = 0.3, 0.9, 1.1
        res = solve_theta(onoff_b(lam=lam, gamma=gamma, eta=eta))
        assert res.found
        expect = np.array([lam + gamma, eta]) / (lam + gamma + eta)
        assert np.abs(res.theta - expect).max() < 1e-12

    def test_perishable_o_b2_no_common_solution(self):
        res = solve_theta(perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2))
        assert isinstance(res, NoCommonSolution)
        assert res.residual >= 1e-4

    def test_theta_mixing_the_closed_classes_of_level_0(self, tmp_path):
        # V_0 = 0 and R = I split Qred(0) into two closed classes; from level 1 on V mixes
        # them, and pi(n, k) = 2^-(n+1) / 2 balances with theta = (1/2, 1/2)
        doc = {"rates": {"lambda_tail": [1], "mu_tail": [2]},
               "environment": {"labels": ["a", "b"],
                               "V_prefix": [[[0, 0], [0, 0]]], "R_prefix": [[[1, 0], [0, 1]]],
                               "V_tail": [[[-1, 1], [1, -1]]], "R_tail": [[[1, 0], [0, 1]]]}}
        model = model_from_dict(doc)
        res = solve_theta(model)
        assert res.found
        assert res.theta.tolist() == [0.5, 0.5]
        pf = product_form(model)
        assert isinstance(pf, ProductFormResult)
        exact = metrics(exact_solve(model), model).throughput
        assert metrics(pf, model).throughput == pytest.approx(exact, rel=1e-12)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        assert main(["separability", "--model", str(path), "--out", str(tmp_path)]) == EXIT_OK

    def test_perishable_uniform_denominator_form(self):
        # for the level-uniform ageing regimes theta climbs the replenishment
        # ladder with denominators lam + gamma * d(l + 1), d the decay profile
        from envqueue.catalog import perishable_minus, perishable_plus

        lam, mu, nu, gamma, b = 1.0, 2.0, 1.0, 0.5, 2
        res_plus = solve_theta(perishable_plus(lam, mu, nu, gamma, b))
        assert res_plus.found
        # d(k) = (k-1)+: theta proportional to (1, nu/lam, nu^2/(lam(lam+gamma)))
        assert np.allclose(res_plus.theta, [0.375, 0.375, 0.25], atol=1e-12)
        res_minus = solve_theta(perishable_minus(lam, mu, nu, gamma, b))
        assert res_minus.found
        # d(k) = k: denominators lam + gamma and lam + 2*gamma
        assert np.allclose(res_minus.theta, [0.5, 1 / 3, 1 / 6], atol=1e-12)


class TestQueueMarginal:
    def test_geometric(self, bs_model):
        marg = queue_marginal(bs_model)
        assert marg.summable
        assert marg.tail_ratio == pytest.approx(0.5, abs=1e-15)
        assert marg.C == pytest.approx(2.0, abs=1e-12)
        for n in range(6):
            assert marg.xi(n) == pytest.approx(0.5 ** (n + 1), abs=1e-14)

    def test_not_summable(self):
        model = mm1_plain(lam=2.0, mu=1.0)
        marg = queue_marginal(model)
        assert not marg.summable
        with pytest.raises(ValueError):
            marg.xi(0)

    def test_normalization_matches_partial_sum(self):
        model = onoff_b(lam=0.1, gamma=1.0, eta=1.0)  # level-dependent arrivals
        marg = queue_marginal(model)
        assert marg.summable
        assert marg.C == pytest.approx(sum(marg.weight(n) for n in range(500)), rel=1e-12)

    def test_weights_read_only(self, bs_model):
        with pytest.raises(ValueError):
            queue_marginal(bs_model).weights[0] = 2.0

    def test_weight_periodic_fold(self):
        model = onoff_b(lam=0.1, gamma=1.0, eta=1.0)
        marg = queue_marginal(model)
        N0, p = model.tail_start, model.period
        n = N0 + 3 * p + 1
        brute = 1.0
        for i in range(n):
            brute *= model.arrival(i) / model.service(i + 1)
        assert marg.weight(n) == pytest.approx(brute, rel=1e-12)


    @pytest.mark.parametrize("model", [
        base_stock(lam=0.9, mu=1.0, nu=3.0, b=5),
        onoff_b(lam=0.1, gamma=1.0, eta=1.0),  # an eight-level prefix
        separable_period_two_model(0.9),  # a two-level prefix and period two
    ], ids=["base_stock", "onoff_b", "period_two"])
    def test_mass_above_sums_the_levels_above(self, model):
        marg = queue_marginal(model)
        levels = np.arange(40)
        xi = marg.xi(np.arange(2000))  # the levels past these hold less than 1e-40
        assert marg.xi(levels).tolist() == [marg.xi(n) for n in levels]
        above = marg.mass_above(levels)
        assert above == pytest.approx([math.fsum(xi[n + 1 :]) for n in levels], rel=1e-13)
        assert above.tolist() == [marg.mass_above(n) for n in levels]
        with pytest.raises(IndexError, match="position -1 is negative"):
            marg.weight(np.array([3, -1]))

    @pytest.mark.parametrize("model", [
        base_stock(lam=0.9, mu=1.0, nu=3.0, b=5),
        onoff_b(lam=0.1, gamma=1.0, eta=1.0),  # an eight-level prefix
        separable_period_two_model(0.9),  # a two-level prefix and period two
    ], ids=["base_stock", "onoff_b", "period_two"])
    def test_level_sums_sum_xi_by_rate_class(self, model):
        # one row per level below T0, then per tail position i the levels T0 + i + j p; the product form reads them
        marg = queue_marginal(model)
        levels, mass, extra = marg.level_sums()
        xi, T0, p = marg.xi(np.arange(2000)), model.tail_start + 1, model.period
        assert levels.tolist() == list(range(T0 + p)) and mass[:T0].tolist() == xi[:T0].tolist()
        assert mass[T0:] == pytest.approx([math.fsum(xi[T0 + i :: p]) for i in range(p)], rel=1e-13)
        assert (levels * mass).sum() + extra == pytest.approx(math.fsum(np.arange(2000) * xi), rel=1e-13)
        if (pf := product_form(model)).separable:
            assert np.array_equal(pf.level_sums()[1], np.outer(mass, pf.theta)) and pf.level_sums()[2] == extra


class TestProductForm:
    def test_base_stock(self, bs_model):
        pf = product_form(bs_model)
        assert isinstance(pf, ProductFormResult)
        assert np.allclose(pf.theta, 1 / 3, atol=1e-12)
        assert pf.C == pytest.approx(2.0, abs=1e-12)
        assert pf.pi(0, 0) == pytest.approx(1 / 6, abs=1e-12)
        assert pf.pi(3, 1) == pytest.approx(0.5**4 / 3, abs=1e-13)
        assert pf.balance_residual <= 1e-10

    def test_perishable_o_b2_not_separable(self, per_o_b2):
        res = product_form(per_o_b2)
        assert isinstance(res, NotSeparable)
        assert res.reason == "NoCommonSolution"
        assert res.residual >= 1e-4

    def test_not_summable_reason(self):
        res = product_form(mm1_plain(lam=2.0, mu=1.0))
        assert isinstance(res, NotSeparable)
        assert res.reason == "NotSummable"
        assert res.tail_ratio == pytest.approx(2.0)

    def test_level_vector_sums_to_marginal(self, bs_model):
        pf = product_form(bs_model)
        for n in range(5):
            assert pf.level_vector(n).sum() == pytest.approx(pf.xi(n), abs=1e-14)

    def test_onoff_a_product_form(self):
        pf = product_form(onoff_a(eta=1.0, gamma=2.0))
        assert isinstance(pf, ProductFormResult)
        assert np.allclose(pf.theta, [2 / 3, 1 / 3], atol=1e-12)

    @pytest.mark.parametrize(
        "model, level",
        [
            (base_stock(lam=1, mu=2, nu=1, b=2), 0),
            # xi grows by 3 per level up to level 2, so the defect peaks there
            (JointModel(
                rates=RateFamily(lambda_prefix=(3.0, 3.0), mu_prefix=(1.0, 1.0), lambda_tail=(1.0,), mu_tail=(2.0,)),
                env=EnvironmentSpec.constant((0, 1), (0,), np.array([[-1.0, 1.0], [2.0, -2.0]]), np.eye(2)),
            ), 2),
        ],
        ids=["base_stock", "rising_prefix"],
    )
    def test_balance_residual_names_worst_level(self, model, level, monkeypatch):
        theta = solve_theta(model).theta + np.r_[1e-3, np.zeros(model.n_env - 2), -1e-3]
        monkeypatch.setattr(separability, "solve_theta", lambda model, B=None: ThetaSolution(theta=theta, residual=0.0))
        res = product_form(model)
        assert isinstance(res, NotSeparable)
        assert res.reason == "BalanceResidual"
        assert res.offending_level == level
        assert res.residual > 1e-4

    def test_report_round_trip(self, bs_model, per_o_b2):
        good = separability_report(bs_model)
        assert good["separable"] and good["reason"] is None
        assert good["C"] == pytest.approx(2.0)
        bad = separability_report(per_o_b2)
        assert not bad["separable"]
        assert bad["reason"] == "NoCommonSolution"


class TestCrossModule:
    @pytest.mark.parametrize(
        "model_builder",
        [
            lambda: base_stock(lam=1, mu=2, nu=1, b=2),
            lambda: base_stock(lam=0.5, mu=2, nu=2, b=3),
            lambda: onoff_a(eta=1.0, gamma=2.0, lam=0.5, mu=2.0),
        ],
    )
    def test_theta_matches_truncated_env_marginal(self, model_builder):
        from envqueue.numerics import solve_truncated

        model = model_builder()
        pf = product_form(model)
        assert isinstance(pf, ProductFormResult)
        sol = solve_truncated(model, 200)
        env = sol.pi.sum(axis=0)
        assert np.abs(env - pf.theta).max() < 1e-8
