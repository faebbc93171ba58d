"""Two-sided throughput bounds for the perishable-inventory family, and the
departure-value iteration and isotonicity check that give their evidence."""

import numpy as np
import pytest

from envqueue import numerics
from envqueue.bounds import (
    DepartureValueTable,
    bound_report,
    build_triple,
    departure_values,
    gamma_sweep,
    isotone_check,
    perishable_b1_closed_form,
)
from envqueue.catalog import base_stock, onoff_b, perishable_o, perishable_plus
from envqueue.model import EnvironmentSpec, InvalidParam, JointModel, RateFamily, _capped_classes
from envqueue.numerics import metrics, solve_truncated
from envqueue.separability import ProductFormResult, product_form
from envqueue.simulate import SimConfig, ZeroExitRate

from conftest import (dense_move_rates, period_two_model, reference_blocks, traced_peak, truncated_generator,
                      value_history)


class TestBuildTriple:
    def test_names(self):
        lo, o, up = build_triple(1, 2, 1, 1, 2)
        assert (lo.name, o.name, up.name) == ("perishable_minus", "perishable_o", "perishable_plus")

    def test_unstable_rejected(self):
        with pytest.raises(InvalidParam):
            build_triple(2, 1, 1, 1, 2)

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
        with pytest.raises(InvalidParam):
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
    def list_levels(*args):
        raise LevelsListed

    monkeypatch.setattr(numerics, "_list_levels", list_levels)
    with pytest.raises(LevelsListed):  # the patch reaches the listing
        numerics.auto_truncate(perishable_o(lam=1, mu=2, nu=1, gamma=1, b=2))
    config = SimConfig(seed=2, horizon=200.0, replications=2)
    assert bound_report(0.99, 1.0, 3.0, 1.0, 5, sim_config=config).TH_o_sim is not None
    assert len(gamma_sweep(0.99, 1.0, 3.0, 5, [0.5, 1.0])) == 2


def csr_departure_values(model, N_cap, horizon):
    """The value iteration with scipy's CSR product on the dense reference generator."""
    sparse = pytest.importorskip("scipy.sparse")
    Q = truncated_generator(model, N_cap)
    m, size = model.n_env, len(Q)
    total = np.cumsum(dense_move_rates(*reference_blocks(model, N_cap)), axis=2)[:, :, -1]
    total = total[_capped_classes(model, N_cap)].ravel()
    src, dst = np.nonzero(Q)
    move = src != dst
    src, dst = src[move], dst[move]
    prob = Q[src, dst] / total[src]
    P = sparse.csr_matrix((prob, (src, dst)), shape=Q.shape)
    down = dst < src - src % m
    reward = np.bincount(src[down], weights=prob[down], minlength=size)
    history = np.zeros((horizon + 1, size))
    for j in range(1, horizon + 1):
        history[j] = reward + P @ history[j - 1]
    return history.reshape(horizon + 1, N_cap + 1, m)


class TestDepartureValues:
    def test_one_jump_values(self, bs_model):
        # v_1(n, k) = probability the first jump is a departure
        table = departure_values(bs_model, N_cap=10, horizon=1)
        v = table.values
        # (1, 1): rates arrival 1, service 2, replenish 1 -> dep prob 1/2
        assert v[1, 1] == pytest.approx(0.5, abs=1e-14)
        # (1, 2): rates arrival 1, service 2 -> dep prob 2/3
        assert v[1, 2] == pytest.approx(2 / 3, abs=1e-14)
        # blocked or empty states cannot produce a departure in one jump
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

    def test_absorbing_state_refused(self):
        # blocked state 2 is never left and admits no arrival, so every (n, 2) absorbs
        V = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]
        env = EnvironmentSpec.constant(labels=(0, 1, 2), blocked=(2,), V=V, R=np.eye(3))
        trap = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env, name="trap")
        with pytest.raises(ZeroExitRate, match=r"^truncated state \(0, 2\) is absorbing$"):
            departure_values(trap, N_cap=10, horizon=1)

    def test_zero_horizon_start(self, bs_model):
        table = departure_values(bs_model, N_cap=8, horizon=0)
        assert table.values.shape == (9, 3)
        assert np.all(table.values == 0.0)

    def test_long_run_rate_matches_throughput(self, bs_model):
        # v_n / n converges to departures-per-jump; scaled by the stationary
        # jump intensity of the truncated chain it recovers the throughput
        from envqueue.numerics import metrics, solve_truncated

        N = 40
        sol = solve_truncated(bs_model, N)
        th = metrics(sol, bs_model).throughput
        Q = truncated_generator(bs_model, N)
        jump_intensity = float(sol.pi.reshape(-1) @ (-np.diag(Q)))
        n_jumps = 10_000
        table = departure_values(bs_model, N_cap=N, horizon=n_jumps)
        rate = table.values[0, 2] / n_jumps * jump_intensity
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
        # the padded-row product adds each row's entries in the CSR product's order: equal bit for bit
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
        # the protected-item upper system genuinely breaks product-order
        # isotonicity in the environment coordinate near n = 0: decay events
        # consume jump budget
        model = perishable_plus(lam=1.0, mu=2.0, nu=1.0, gamma=4.0, b=3)
        table = departure_values(model, N_cap=60, horizon=12)
        report = isotone_check(table)
        violations = violation_tuples(report)
        assert not report.isotone
        assert any(not v[3] for v in violations)
        assert len(report.violations) == len(violations) == 122
        assert violations[0] == ((0, 1), (0, 2), 0.17151598169818194, False)
        assert violations[-1] == ((60, 2), (60, 3), 0.15876026599990434, True)

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
