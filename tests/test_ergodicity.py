"""Necessary condition, first-entrance times, and Lyapunov certification."""

import math

import numpy as np
import pytest

from envqueue.catalog import base_stock, mm1_plain, onoff_a, onoff_b, perishable_minus, perishable_o, perishable_plus
from envqueue.ergodicity import (
    BothBranchesZero,
    CannotBuild,
    LyapunovCertificate,
    NotCertified,
    SingularSystem,
    build_mm1_lyapunov,
    c_hat,
    certify,
    solve_tau,
)
from envqueue.model import EnvironmentSpec, JointModel, RateFamily
from envqueue.numerics import NotConvergent, NotErgodic, exact_solve
from envqueue.separability import product_form, queue_marginal

from conftest import check_certify_against_dense, period_two_model, separable_period_two_model, two_state_model


class TestCheckNecessary:
    def test_stable(self, bs_model):
        marginal = queue_marginal(bs_model)
        assert marginal.summable and marginal.tail_ratio == pytest.approx(0.5)

    def test_unstable(self):
        marginal = queue_marginal(mm1_plain(lam=2.0, mu=1.0))
        assert not marginal.summable and marginal.tail_ratio == pytest.approx(2.0)


class TestSolveTau:
    def test_base_stock_one_over_nu(self):
        model = base_stock(lam=1, mu=2, nu=4.0, b=2)
        table = solve_tau(model, 3)
        assert table.tau[0] == pytest.approx(0.25, abs=1e-14)
        assert table.tau[1] == 0.0  # working states carry tau = 0
        assert table.residual <= 1e-10

    def test_two_blocked_chain(self):
        # blocked states {0, 1}, exits 0 -> 1 at rate 2, 1 -> 2 at rate 3:
        # tau(1) = 1/3, tau(0) = 1/2 + tau(1)
        V = np.array(
            [
                [-2.0, 2.0, 0.0],
                [0.0, -3.0, 3.0],
                [1.0, 0.0, -1.0],
            ]
        )
        env = EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(0, 1), V=V, R=np.eye(3))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env, name="chain")
        table = solve_tau(model, 0)
        assert table.tau[1] == pytest.approx(1 / 3, abs=1e-14)
        assert table.tau[0] == pytest.approx(1 / 2 + 1 / 3, abs=1e-14)

    def test_no_exit_raises(self):
        # blocked state 0 has no outgoing transition at all: singular system
        V = np.array([[0.0, 0.0], [1.0, -1.0]])
        env = EnvironmentSpec.constant(labels=(0, 1), blocked=(0,), V=V, R=np.eye(2))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env, name="trap")
        with pytest.raises(SingularSystem):
            solve_tau(model, 0)

    def test_no_blocked_states(self, mm1_model):
        table = solve_tau(mm1_model, 5)
        assert np.all(table.tau == 0.0)


class TestCHat:
    def test_base_stock_exact(self):
        # service jump branch: mu * R(1, 0) * tau(0) = mu / nu; continuous
        # branch is zero (no V transition from working into stock-out)
        for mu, nu in [(2.0, 1.0), (3.0, 0.5), (1.5, 4.0)]:
            model = base_stock(lam=min(mu, nu) / 4, mu=mu, nu=nu, b=3)
            assert c_hat(model, 0) == nu / mu
            assert c_hat(model, 7) == nu / mu

    def test_no_blocked_infinite(self, mm1_model):
        assert c_hat(mm1_model, 2) == math.inf

    def test_unreachable_blocked_raises(self):
        # blocked state exists but nothing working ever enters it
        V = np.array([[-1.0, 1.0], [0.0, 0.0]])
        env = EnvironmentSpec.constant(labels=(0, 1), blocked=(0,), V=V, R=np.eye(2))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env, name="island")
        with pytest.raises(BothBranchesZero):
            c_hat(model, 1)

    def test_periodic_in_level(self, per_o_b2):
        p = per_o_b2.period
        base = per_o_b2.tail_start
        assert c_hat(per_o_b2, base + 1) == pytest.approx(c_hat(per_o_b2, base + 1 + p), abs=1e-14)


class TestBuildLyapunov:
    def test_linear_drift(self, mm1_model):
        lyap = build_mm1_lyapunov(mm1_model, kind="linear_drift")
        assert lyap.eps_tilde == pytest.approx(1.0)  # mu - lam = 1
        assert 0 in lyap.F_levels
        assert lyap.values[3] == 3.0

    def test_hitting_time(self, mm1_model):
        lyap = build_mm1_lyapunov(mm1_model, kind="hitting_time")
        # constant rates: h(n) = 1/(mu - lam) = 1, so L(n) = n
        assert lyap.eps_tilde == 1.0
        assert lyap.F_levels == (0,)
        for n in range(6):
            assert lyap.values[n] == pytest.approx(float(n), abs=1e-12)

    def test_hitting_time_prefix(self):
        # lam = 1 everywhere; mu(1) = 4, mu(n) = 2 beyond: h tail = 1,
        # h(1) = (1 + 1*1)/4 = 1/2
        rates = RateFamily(lambda_prefix=(1.0,), mu_prefix=(4.0,), lambda_tail=(1.0,), mu_tail=(2.0,))
        env = EnvironmentSpec.constant(labels=(0,), blocked=(), V=np.zeros((1, 1)), R=np.ones((1, 1)))
        model = JointModel(rates=rates, env=env, name="prefix_mm1")
        lyap = build_mm1_lyapunov(model, kind="hitting_time")
        assert lyap.values[1] == pytest.approx(0.5, abs=1e-14)
        assert lyap.values[2] == pytest.approx(1.5, abs=1e-14)

    def test_unstable_cannot_build(self):
        bad = mm1_plain(lam=2.0, mu=1.0)
        assert isinstance(build_mm1_lyapunov(bad, "linear_drift"), CannotBuild)
        assert isinstance(build_mm1_lyapunov(bad, "hitting_time"), CannotBuild)

    def test_unknown_kind(self, mm1_model):
        with pytest.raises(ValueError):
            build_mm1_lyapunov(mm1_model, kind="nope")


class TestCertify:
    def test_perishable_o_certified(self, per_o_b2):
        cert = certify(per_o_b2)
        assert isinstance(cert, LyapunovCertificate)
        assert cert.eps > 0
        assert cert.worst_margin >= -1e-12

    def test_base_stock_eps_value(self):
        # eps_tilde = mu - lam = 1; c_hat = nu/mu = 1/2; c = eps_tilde/4 * c_hat
        # = 1/8 < eps_tilde/2, so eps = 1/8
        cert = certify(base_stock(lam=1, mu=2, nu=1, b=3))
        assert isinstance(cert, LyapunovCertificate)
        assert cert.eps == pytest.approx(1 / 8, abs=1e-14)

    def test_non_ergodic_rejected_by_necessary(self):
        res = certify(mm1_plain(lam=2.0, mu=1.0))
        assert isinstance(res, NotCertified)
        assert res.reason == "NecessaryFails"

    def test_necessary_fails_names_the_ratio(self):
        # r = 1 exactly: the isolated queue is null recurrent
        res = certify(base_stock(lam=1, mu=1, nu=3, b=5))
        assert res == NotCertified(reason="NecessaryFails", detail="queue tail ratio 1.0 is not below 1")

    def test_hitting_time_kind(self, bs_model):
        cert = certify(bs_model, kind="hitting_time")
        assert isinstance(cert, LyapunovCertificate)
        assert cert.eps > 0

    def test_no_blocked_states_certifies(self, mm1_model):
        cert = certify(mm1_model)
        assert isinstance(cert, LyapunovCertificate)
        assert cert.eps == pytest.approx(0.5)  # eps_tilde / 2, all c_n infinite

    def test_record_serializable(self, bs_model):
        import json

        cert = certify(bs_model)
        text = json.dumps(cert.to_record())
        assert "epsilon" in text

    def test_level_dependent_arrivals(self):
        # onoff_b with growing arrivals is non-ergodic once lam*(n+1) > mu
        res = certify(onoff_b(lam=0.5, gamma=1.0, eta=1.0, mu=2.0))
        assert isinstance(res, NotCertified)

    def test_separable_model_certified(self):
        # every separable ergodic catalog model should also certify
        cert = certify(two_state_model(lam=0.5, mu=2.0))
        assert isinstance(cert, LyapunovCertificate)

    def test_drift_equal_to_minus_eps_certifies(self):
        # the construction makes the blocked state (8, 0) drift exactly -c_n = -eps; its drift sums
        # differences of values ~8 apart by ~2e-3, and their round-off is of the values' size
        model = onoff_a(eta=0.71472, gamma=2.40009, lam=2.37801, mu=2.40763)
        cert = certify(model)
        assert isinstance(cert, LyapunovCertificate)
        assert cert.worst_margin >= -1e-12


@pytest.mark.parametrize("kind", ["linear_drift", "hitting_time"])
@pytest.mark.parametrize(
    "model",
    [
        base_stock(lam=1, mu=2, nu=1, b=2),
        base_stock(lam=1, mu=2, nu=1.5, b=50),
        perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2),
        perishable_o(lam=1, mu=2, nu=10, gamma=2, b=50),
        perishable_minus(lam=1, mu=2, nu=1, gamma=1, b=3),
        perishable_plus(lam=1, mu=2, nu=1, gamma=1, b=3),
        onoff_a(eta=0.71472, gamma=2.40009, lam=2.37801, mu=2.40763),
        onoff_b(lam=0.2, gamma=2.0, eta=1.0, depth=3),
        onoff_b(lam=0.5, gamma=1.0, eta=1.0, mu=2.0),
        mm1_plain(lam=1.0, mu=2.0),
        period_two_model(),
        separable_period_two_model(0.5),
    ],
    ids=["bs_b2", "bs_b50", "po_b2", "po_b50", "pminus", "pplus", "onoff_a", "onoff_b", "onoff_b_unstable", "mm1",
         "period_two", "separable_period_two"],
)
def test_certify_matches_dense_rows(model, kind):
    check_certify_against_dense(model, kind)


# catalog families at mu = 1, nu = 3, b = 5 and gamma = 1, as functions of lambda
NEAR_CRITICAL_FAMILIES = {
    "base_stock": lambda lam: base_stock(lam=lam, mu=1.0, nu=3.0, b=5),
    "perishable_minus": lambda lam: perishable_minus(lam=lam, mu=1.0, nu=3.0, gamma=1.0, b=5),
    "perishable_plus": lambda lam: perishable_plus(lam=lam, mu=1.0, nu=3.0, gamma=1.0, b=5),
    "perishable_o": lambda lam: perishable_o(lam=lam, mu=1.0, nu=3.0, gamma=1.0, b=5),
    "mm1_plain": lambda lam: mm1_plain(lam=lam, mu=1.0),
}


@pytest.mark.parametrize("family", sorted(NEAR_CRITICAL_FAMILIES))
def test_verdicts_follow_the_sign_of_mu_minus_lambda(family):
    # lambda = mu (1 -+ 10^-k): below mu every model is ergodic, however close, and above it none is;
    # the exact solve may refuse a drift within its round-off, but never calls it not ergodic
    for k in range(1, 16):
        for lam in (1.0 - 10.0**-k, 1.0 + 10.0**-k):
            model = NEAR_CRITICAL_FAMILIES[family](lam)
            pf, cert = product_form(model), certify(model)
            try:
                ergodic = exact_solve(model).drift > 0.0
            except NotConvergent:
                ergodic = None
            except NotErgodic:
                ergodic = False
            if lam < 1.0:
                assert getattr(pf, "reason", None) != "NotSummable", (k, lam)
                assert getattr(cert, "reason", None) != "NecessaryFails", (k, lam)
                assert ergodic is not False, (k, lam)
            else:
                assert not cert.certified and ergodic is False, (k, lam)
