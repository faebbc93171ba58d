"""Product-form decision: reduced generators, theta, queue marginal."""

import json

import numpy as np
import pytest

from envqueue import separability
from envqueue.catalog import base_stock, mm1_plain, onoff_a, onoff_b, perishable_o
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

from conftest import two_state_model


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

    def test_non_finite_raises(self):
        with pytest.raises(separability.SingularSolve, match="not finite"):
            gth_stationary(np.array([[-1.0, 1.0], [np.nan, np.nan]]))


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

    def test_near_critical_warns(self):
        model = mm1_plain(lam=1.0, mu=1.0)
        with pytest.warns(RuntimeWarning):
            queue_marginal(model)

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
