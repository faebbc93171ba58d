"""Two-sided throughput bounds for the perishable-inventory family, and the
departure-value iteration and isotonicity check that give their evidence."""

import numpy as np
import pytest

from envqueue import numerics
from envqueue.bounds import (
    VALUE_CAP,
    DepartureValueTable,
    bound_report,
    build_triple,
    departure_values,
    gamma_sweep,
    isotone_check,
    perishable_b1_closed_form,
)
from envqueue.catalog import (base_stock, mm1_plain, onoff_a, onoff_b, perishable_minus, perishable_o,
                              perishable_plus)
from envqueue.model import EnvironmentSpec, JointModel, RateFamily, _blocks, _capped_classes
from envqueue.numerics import (NotErgodic, autonomous_environment, exact_solve, isolated_throughput, metrics,
                               solve_truncated)
from envqueue.separability import ProductFormResult, product_form
from envqueue.simulate import SimConfig

from conftest import (dense_move_rates, period_two_model, poisson_oracle, reference_blocks, traced_peak,
                      truncated_generator, value_history)


class TestBuildTriple:
    def test_names(self):
        lo, o, up = build_triple(1, 2, 1, 1, 2)
        assert (lo.name, o.name, up.name) == ("perishable_minus", "perishable_o", "perishable_plus")

    def test_unstable_rejected(self):
        # the triple is built, and the target's verdict refuses it before the companions' product forms
        for lam in (2.0, 1.0):
            assert all(model.arrival(0) == lam for model in build_triple(lam, 1, 1, 1, 2))
            message = f"^queue tail ratio {lam} is not below 1$"
            with pytest.raises(NotErgodic, match=message):
                bound_report(lam, 1, 1, 1, 2)
            with pytest.raises(NotErgodic, match=message):
                gamma_sweep(lam, 1, 1, 2, [0.5, 1.0])

    def test_gamma_zero_collapses_to_base_stock(self):
        lo, o, up = build_triple(1, 2, 1, 0.0, 2)
        bs = base_stock(lam=1, mu=2, nu=1, b=2)
        for n in range(4):
            for m in (lo, o, up):
                assert np.array_equal(m.V(n), bs.V(n))


class TestProductFormThroughput:
    def test_base_stock_reference(self):
        bs = base_stock(lam=1, mu=2, nu=1, b=2)
        pf = product_form(bs)
        assert metrics(pf, bs).throughput == pytest.approx(2 / 3, rel=1e-12)

    def test_matches_truncation(self):
        lo, _, up = build_triple(1, 2, 1, 0.7, 2)
        for model in (lo, up):
            pf = product_form(model)
            assert isinstance(pf, ProductFormResult)
            exact = metrics(pf, model).throughput
            sol = solve_truncated(model, 200)
            assert metrics(sol, model).throughput == pytest.approx(exact, abs=1e-10)


class TestB1ClosedForm:
    def test_pi_normalizes(self):
        pi, th = perishable_b1_closed_form(1.0, 2.0, 1.0, 1.0)
        total = sum(pi(n, k) for n in range(300) for k in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_reference_values(self):
        pi, th = perishable_b1_closed_form(1.0, 2.0, 1.0, 1.0)
        assert pi(0, 0) == pytest.approx(2 / 5, abs=1e-14)
        assert pi(0, 1) == pytest.approx(1 / 5, abs=1e-14)
        for n in (1, 2, 5):
            assert pi(n, 0) == pytest.approx(0.5**n / 5, abs=1e-14)
            assert pi(n, 1) == pytest.approx(0.5**n / 5, abs=1e-14)
        assert th == pytest.approx(0.4, abs=1e-14)

    def test_matches_truncated_solve(self):
        model = perishable_o(lam=1, mu=2, nu=1, gamma=1, b=1)
        sol = solve_truncated(model, 200)
        pi, th = perishable_b1_closed_form(1.0, 2.0, 1.0, 1.0)
        worst = max(
            abs(sol.pi[n, k] - pi(n, k)) for n in range(100) for k in (0, 1)
        )
        assert worst < 1e-9
        assert metrics(sol, model).throughput == pytest.approx(th, abs=1e-9)

    def test_unstable_rejected(self):
        with pytest.raises(NotErgodic, match="^queue tail ratio 2.0 is not below 1$"):
            perishable_b1_closed_form(2.0, 1.0, 1.0, 1.0)


class TestBoundReport:
    def test_mu_equals_gamma_regime(self):
        report = bound_report(1.0, 1.5, 1.0, 1.5, 2)
        assert report.regime.startswith("proved: mu = gamma")
        assert report.ordering_holds
        assert report.TH_minus <= report.TH_o_truncated <= report.TH_plus
        assert report.TH_o_closed is None
        assert max(report.balance_residuals.values()) <= 1e-10

    def test_b1_closed_form_attached(self):
        report = bound_report(1.0, 2.0, 1.0, 1.0, 1)
        assert report.TH_o_closed == pytest.approx(0.4, abs=1e-12)
        assert report.TH_o_truncated == pytest.approx(0.4, abs=1e-8)
        assert report.ordering_holds

    def test_with_simulation(self):
        config = SimConfig(seed=11, horizon=3000.0, replications=6)
        report = bound_report(1.0, 2.0, 1.0, 1.0, 2, sim_config=config)
        assert report.TH_o_sim is not None
        assert report.ordering_holds
        assert report.TH_o_sim.covers(report.TH_o_truncated) or (
            abs(report.TH_o_sim.mean - report.TH_o_truncated)
            < 3 * report.TH_o_sim.half_width
        )

    def test_regimes(self):
        assert bound_report(1.0, 2.0, 1.0, 1.5, 2).regime.startswith("proved: lam <= gamma")
        assert bound_report(1.0, 2.0, 1.0, 0.5, 2).regime == "conjecture"

    def test_record_flat(self):
        import json

        rec = bound_report(1.0, 1.5, 1.0, 1.5, 2).to_record()
        json.dumps(rec)
        assert rec["ordering_holds"]


class TestGammaSweep:
    def test_ordering_and_gap_shrinks(self):
        # the bounds pinch the target as gamma -> 0: a halving grid, then 25 points from 3 to 1e-3
        for gammas in ([1.6, 0.8, 0.4, 0.2, 0.1], np.geomspace(3.0, 1e-3, 25)):
            rows = gamma_sweep(1.0, 2.0, 1.0, 2, gammas)
            assert [row[0] for row in rows] == list(gammas)
            gaps = []
            for gamma, th_m, th_o, th_p in rows:
                assert th_m <= th_o + 1e-9 <= th_p + 2e-9
                gaps.append(th_p - th_m)
            # continuity: the exact gap shrinks monotonically as gamma decreases
            assert all(a > b for a, b in zip(gaps, gaps[1:]))


class LevelsListed(Exception):
    pass


def test_bounds_and_sweep_list_no_levels(monkeypatch):
    def listing_level(*args):
        raise LevelsListed

    # both listings, from the product form and from the exact solve, are sized by `_listing_level`
    monkeypatch.setattr(numerics, "_listing_level", listing_level)
    for model in (base_stock(lam=1, mu=2, nu=1, b=2), perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2)):
        with pytest.raises(LevelsListed):  # the patch reaches the listing
            numerics.auto_truncate(model)
    config = SimConfig(seed=2, horizon=200.0, replications=2)
    assert bound_report(0.99, 1.0, 3.0, 1.0, 5, sim_config=config).TH_o_sim is not None
    assert len(gamma_sweep(0.99, 1.0, 3.0, 5, [0.5, 1.0])) == 2


def csr_departure_values(model, N_cap, horizon):
    """The value iteration with scipy's CSR product on the dense reference generator:
    P = I + Q/Lambda, its off-diagonal part as a CSR matrix and its diagonal as `stay`."""
    sparse = pytest.importorskip("scipy.sparse")
    Q = truncated_generator(model, N_cap)
    m, size = model.n_env, len(Q)
    total = np.cumsum(dense_move_rates(*reference_blocks(model, N_cap)), axis=2)[:, :, -1]
    total = total[_capped_classes(model, N_cap)].ravel()
    Lambda = total.max()
    src, dst = np.nonzero(Q)
    move = src != dst
    src, dst = src[move], dst[move]
    prob = Q[src, dst] / Lambda
    P_off = sparse.csr_matrix((prob, (src, dst)), shape=Q.shape)
    stay = 1.0 - total / Lambda
    down = dst < src - src % m
    reward = np.bincount(src[down], weights=prob[down], minlength=size)
    history = np.zeros((horizon + 1, size))
    for j in range(1, horizon + 1):
        h = history[j - 1]
        history[j] = reward + (P_off @ h + stay * h)
    return history.reshape(horizon + 1, N_cap + 1, m)


class TestDepartureValues:
    def test_one_jump_values(self, bs_model):
        # v_1(n, k) = service rate / Lambda, Lambda = 4: arrival 1, service 2 and replenishment 1 at (1, 1)
        table = departure_values(bs_model, N_cap=10, horizon=1)
        v = table.values
        assert v[1, 1] == v[1, 2] == 2 / 4
        # blocked or empty states cannot produce a departure in one step
        assert v[0, 1] == 0.0
        assert v[3, 0] == 0.0

    def test_v1_at_most_one(self, per_o_b2):
        table = departure_values(per_o_b2, N_cap=12, horizon=1)
        assert table.values.max() <= 1.0 + 1e-14

    def test_monotone_in_horizon(self, bs_model):
        h = value_history(bs_model, N_cap=15, horizon=8)
        assert np.all(h[1:] >= h[:-1] - 1e-14)

    def test_bounded_by_horizon(self, bs_model):
        table = departure_values(bs_model, N_cap=15, horizon=8)
        assert table.values.max() <= 8.0 + 1e-12

    def test_no_exit_is_a_self_loop(self):
        # blocked state 2 is never left and admits no arrival: every (n, 2) stays put and departs never
        V = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]
        env = EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(2,), V=V, R=np.eye(3))
        trap = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env, name="trap")
        v = departure_values(trap, N_cap=10, horizon=20).values
        assert np.all(v[:, 2] == 0.0) and np.all(v[1:, :2] > 0.0)
        # a table with no move at all: P = I, and no departure ever
        assert np.array_equal(departure_values(mm1_plain(1.0, 2.0), N_cap=0, horizon=5).values, [[0.0]])

    def test_zero_horizon_start(self, bs_model):
        table = departure_values(bs_model, N_cap=8, horizon=0)
        assert table.values.shape == (9, 3)
        assert np.all(table.values == 0.0)

    def test_long_run_rate_matches_throughput(self, bs_model):
        # v_n / n converges to departures per step of P, and the steps of P come at rate Lambda
        N = 40
        th = metrics(solve_truncated(bs_model, N), bs_model).throughput
        n_steps = 10_000
        table = departure_values(bs_model, N_cap=N, horizon=n_steps)
        rate = table.values[0, 2] / n_steps * 4.0  # Lambda: arrival 1, service 2 and replenishment 1
        assert rate == pytest.approx(th, abs=2e-3)

    @pytest.mark.parametrize(
        "model, N_cap, horizon",
        [
            (base_stock(lam=1, mu=2, nu=1, b=2), 20, 30),
            (perishable_o(lam=1, mu=2, nu=3, gamma=1, b=10), 30, 12),
            (perishable_plus(lam=1, mu=2, nu=1, gamma=4, b=3), 60, 12),
            (onoff_b(lam=0.5, gamma=1, eta=1), 25, 20),
            (period_two_model(), 15, 25),
        ],
        ids=["base_stock", "perishable_o_b10", "perishable_plus", "onoff_b", "period_two"],
    )
    def test_matches_csr_product(self, model, N_cap, horizon):
        # the padded-row product adds each row's entries in the CSR product's order, then the diagonal:
        # equal bit for bit
        assert np.array_equal(value_history(model, N_cap, horizon), csr_departure_values(model, N_cap, horizon))


def violation_tuples(report):
    """The report's violations as ((m, k), cover (m', k'), margin, boundary_affected), in its order."""
    viol = report.violations
    return [((m_, k), (m_ + 1 - r, k + r), g, b) for (m_, k), r, g, b in
            zip(viol["state"].tolist(), viol["relation"].tolist(), viol["margin"].tolist(), viol["boundary"].tolist())]


class TestIsotone:
    def test_base_stock_isotone(self, bs_model):
        table = departure_values(bs_model, N_cap=40, horizon=15)
        report = isotone_check(table)
        interior = [v for v in violation_tuples(report) if not v[3]]
        assert not interior, interior

    def test_boundary_flagged(self, bs_model):
        # tight cap: any violation must be attributed to the reflecting cap
        table = departure_values(bs_model, N_cap=6, horizon=20)
        report = isotone_check(table)
        assert all(v[3] for v in violation_tuples(report))

    def test_violation_reported_not_suppressed(self):
        # environment state 2 is blocked, so a higher k can serve less: a real violation of the
        # product order in the environment coordinate, away from the cap as well as near it
        V = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]
        env = EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(2,), V=V, R=np.eye(3))
        model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env, name="blocked_top")
        report = isotone_check(departure_values(model, N_cap=20, horizon=10))
        violations = violation_tuples(report)
        assert not report.isotone
        assert len(report.violations) == len(violations) == 42
        assert sum(not v[3] for v in violations) == 22
        assert violations[0] == ((0, 0), (0, 1), 0.2129543168000001, False)
        assert violations[-1] == ((20, 1), (20, 2), 1.2259241984, True)

    def test_benchmark_triple_isotone_over_2000_steps(self):
        # the heavy-traffic bounds point, 40 times the report's horizon: still no violation in any system
        for system in build_triple(0.95, 1.0, 3.0, 1.0, 5):
            report = isotone_check(departure_values(system, N_cap=VALUE_CAP, horizon=2000))
            assert report.isotone and report.violations.size == 0, system.name

    @pytest.mark.parametrize(
        "table",
        [
            departure_values(perishable_plus(lam=1.0, mu=2.0, nu=1.0, gamma=4.0, b=3), N_cap=60, horizon=12),
            departure_values(perishable_o(lam=1.0, mu=2.0, nu=3.0, gamma=1.0, b=10), N_cap=30, horizon=8),
            # violations of both covering relations, interleaved
            DepartureValueTable(horizon=3, N_cap=9, values=np.random.default_rng(1).random((10, 4))),
        ],
        ids=["perishable_plus", "perishable_o_b10", "random_values"],
    )
    def test_matches_loop_reference(self, table):
        v = table.values
        safe = table.N_cap - table.horizon
        expected = []
        for m_ in range(table.N_cap + 1):
            for k in range(v.shape[1]):
                for dm, dk in ((1, 0), (0, 1)):
                    m2, k2 = m_ + dm, k + dk
                    if m2 <= table.N_cap and k2 < v.shape[1] and v[m_, k] - v[m2, k2] > 1e-12:
                        expected.append(((m_, k), (m2, k2), float(v[m_, k] - v[m2, k2]), m_ > safe or m2 > safe))
        report = isotone_check(table)
        assert report.isotone == (not expected)
        assert violation_tuples(report) == expected


class TestMemory:
    def test_departure_values_do_not_grow_with_horizon(self):
        # keeping every v_j would hold 501 x 82 kB at horizon 500: a peak of 45.9 MB against 9.2 MB at 50
        model = perishable_o(lam=1.0, mu=2.0, nu=10.0, gamma=2.0, b=100)
        short, long = (traced_peak(departure_values, model, 100, horizon) for horizon in (50, 500))
        assert long <= 1.2 * short

    def test_isotone_check_does_not_grow_per_violation(self):
        # a Python tuple per violation would take ~36 times the table's bytes here
        table = DepartureValueTable(horizon=3, N_cap=100, values=np.random.default_rng(1).random((101, 101)))
        assert isotone_check(table).violations.size >= 5000
        assert traced_peak(isotone_check, table) <= 12 * table.values.nbytes


def closed_form(model):
    """TH and P(blocked) of a model whose environment is autonomous, from `autonomous_environment`."""
    theta = autonomous_environment(model, *_blocks(model))
    working = model.env.working_mask()
    return float(theta[working].sum()) * isolated_throughput(model), float(theta[~working].sum())


# (lam, mu = gamma, nu, b)
POISSON_POINTS = [(0.9, 1, 3, 5), (0.95, 1, 3, 5), (0.999, 1, 3, 5), (1, 2, 10, 50), (1, 2, 10, 100), (0.5, 1, 3, 30)]


class TestAutonomousEnvironment:
    @pytest.mark.parametrize("lam, mu, nu, b", POISSON_POINTS)
    def test_exact_solve_matches_poisson_oracle(self, lam, mu, nu, b):
        model = perishable_o(lam, mu, nu, mu, b)
        th, _ = poisson_oracle(lam, mu, nu, b)
        assert metrics(exact_solve(model), model).throughput == pytest.approx(th, rel=1e-13, abs=0)

    @pytest.mark.parametrize("lam, mu, nu, b", POISSON_POINTS)
    def test_closed_form_matches_poisson_oracle(self, lam, mu, nu, b):
        th, theta0 = poisson_oracle(lam, mu, nu, b)
        assert closed_form(perishable_o(lam, mu, nu, mu, b)) == pytest.approx((th, theta0), rel=1e-13, abs=0)

    def test_small_blocking_probability_keeps_its_digits(self):
        # nu/gamma = 40, b = 60: theta(0) = 4.3e-18, which the exact solve misses by 6.4e-3 relative
        lam, gamma, nu, b = 0.2, 0.25, 10.0, 60
        th, theta0 = poisson_oracle(lam, gamma, nu, b)
        assert closed_form(perishable_o(lam, gamma, nu, gamma, b)) == pytest.approx((th, theta0), rel=1e-12, abs=0)

    @pytest.mark.parametrize("model, autonomous", [
        *[(perishable_o(1.0, 2.0, 10.0, 2.0, b), True) for b in (1, 2, 5, 50, 100)],
        (mm1_plain(1.0, 2.0), True),
        (perishable_o(1.0, 2.0, 10.0, 1.5, 5), False),
        (base_stock(1.0, 2.0, 10.0, 5), False),
        (perishable_minus(1.0, 2.0, 10.0, 2.0, 5), False),
        (perishable_plus(1.0, 2.0, 10.0, 2.0, 5), False),
        (onoff_a(1.0, 1.0), False),
        (onoff_b(0.2, 1.0, 1.0), False),
    ], ids=[*(f"perishable_o_b{b}" for b in (1, 2, 5, 50, 100)), "mm1_plain", "perishable_o_gamma1.5",
            "base_stock", "perishable_minus", "perishable_plus", "onoff_a", "onoff_b"])
    def test_which_environments_are_autonomous(self, model, autonomous):
        theta = autonomous_environment(model, *_blocks(model))
        assert (theta is not None) == autonomous
        if autonomous:
            assert theta.sum() == pytest.approx(1.0, rel=1e-15)

    def test_unstable_queue_is_not_ergodic(self):
        model = perishable_o(2.0, 1.0, 3.0, 1.0, 5)
        with pytest.raises(NotErgodic, match="tail ratio 2.0 is not below 1"):
            autonomous_environment(model, *_blocks(model))
