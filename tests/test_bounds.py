"""Two-sided throughput bounds for the perishable-inventory family."""

import numpy as np
import pytest

from envqueue import bounds, numerics
from envqueue.bounds import (
    AgeingOrderViolated,
    bound_report,
    build_triple,
    gamma_sweep,
    perishable_b1_closed_form,
)
from envqueue.catalog import base_stock, perishable_minus
from envqueue.model import InvalidParam
from envqueue.numerics import metrics, solve_truncated
from envqueue.separability import ProductFormResult, product_form
from envqueue.simulate import SimConfig


class TestBuildTriple:
    def test_names(self):
        lo, o, up = build_triple(1, 2, 1, 1, 2)
        assert (lo.name, o.name, up.name) == ("perishable_minus", "perishable_o", "perishable_plus")

    def test_unstable_rejected(self):
        with pytest.raises(InvalidParam):
            build_triple(2, 1, 1, 1, 2)

    def test_out_of_order_rejected(self, monkeypatch):
        # a plus system that ages every item exceeds the target's rates at n >= 1
        monkeypatch.setattr(bounds, "perishable_plus", perishable_minus)
        with pytest.raises(AgeingOrderViolated, match=r"n=1, k=1"):
            build_triple(1, 2, 1, 1, 2)

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
        from envqueue.catalog import perishable_o

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
        gammas = [1.6, 0.8, 0.4, 0.2, 0.1]
        rows = gamma_sweep(1.0, 2.0, 1.0, 2, gammas)
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
        numerics.auto_truncate(base_stock(lam=1, mu=2, nu=1, b=2))
    config = SimConfig(seed=2, horizon=200.0, replications=2)
    assert bound_report(0.99, 1.0, 3.0, 1.0, 5, sim_config=config).TH_o_sim is not None
    assert len(gamma_sweep(0.99, 1.0, 3.0, 5, [0.5, 1.0])) == 2
