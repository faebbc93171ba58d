"""Trajectory simulation, departure-value iteration, isotonicity."""

import numpy as np
import pytest

from envqueue.catalog import base_stock, mm1_plain, perishable_plus
from envqueue.simulate import (
    SimConfig,
    departure_values,
    isotone_check,
    simulate,
    write_event_log,
)


class TestSimulate:
    def test_seed_reproducibility(self, bs_model):
        config = SimConfig(seed=123, horizon=500.0, replications=4)
        a = simulate(bs_model, config)
        b = simulate(bs_model, config)
        assert a.estimate.per_replication == b.estimate.per_replication
        assert a.total_jumps == b.total_jumps

    def test_different_seeds_differ(self, bs_model):
        config_a = SimConfig(seed=1, horizon=500.0, replications=2)
        config_b = SimConfig(seed=2, horizon=500.0, replications=2)
        a = simulate(bs_model, config_a)
        b = simulate(bs_model, config_b)
        assert a.estimate.per_replication != b.estimate.per_replication

    def test_mm1_covers_lambda(self, mm1_model):
        result = simulate(mm1_model, SimConfig(seed=0, horizon=2e4, replications=10))
        assert result.estimate.covers(1.0)

    def test_base_stock_covers_analytic(self, bs_model):
        result = simulate(bs_model, SimConfig(seed=0, horizon=2e4, replications=10))
        assert result.estimate.covers(2 / 3)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimConfig(replications=0)
        with pytest.raises(ValueError):
            SimConfig(warmup=1.5)

    def test_event_log(self, bs_model, tmp_path):
        path = tmp_path / "events.csv"
        write_event_log(bs_model, SimConfig(seed=5, horizon=50.0), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,n,k,event"
        events = {line.split(",")[3] for line in lines[1:]}
        assert events <= {"arrival", "departure", "env"}
        assert "arrival" in events and "departure" in events
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == sorted(times)

    def test_event_log_is_replication_zero(self, bs_model, tmp_path):
        config = SimConfig(seed=3, horizon=300.0, replications=2)
        path = tmp_path / "events.csv"
        write_event_log(bs_model, config, path)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        assert 0 < len(rows) < 100_000  # the horizon, not max_events, ended the log
        warmup = config.warmup * config.horizon
        departures = sum(1 for t, _, _, event in rows if event == "departure" and float(t) >= warmup)
        rate = departures / (config.horizon - warmup)
        assert rate == simulate(bs_model, config).estimate.per_replication[0]

    def test_event_log_stops_at_max_events(self, bs_model, tmp_path):
        path = tmp_path / "events.csv"
        write_event_log(bs_model, SimConfig(seed=3, horizon=300.0), path, max_events=5)
        assert len(path.read_text().strip().split("\n")) == 1 + 5


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
        table = departure_values(bs_model, N_cap=15, horizon=8)
        h = table.history
        assert np.all(h[1:] >= h[:-1] - 1e-14)

    def test_bounded_by_horizon(self, bs_model):
        table = departure_values(bs_model, N_cap=15, horizon=8)
        assert table.values.max() <= 8.0 + 1e-12

    def test_zero_horizon_start(self, bs_model):
        table = departure_values(bs_model, N_cap=8, horizon=3)
        assert np.all(table.history[0] == 0.0)

    def test_long_run_rate_matches_throughput(self, bs_model):
        # v_n / n converges to departures-per-jump; scaled by the stationary
        # jump intensity of the truncated chain it recovers the throughput
        from envqueue.numerics import build_truncated_generator, metrics, solve_truncated

        N = 40
        sol = solve_truncated(bs_model, N)
        th = metrics(sol, bs_model).throughput
        Q = build_truncated_generator(bs_model, N)
        jump_intensity = float(sol.pi.reshape(-1) @ (-Q.diagonal()))
        n_jumps = 10_000
        table = departure_values(bs_model, N_cap=N, horizon=n_jumps)
        rate = table.values[0, 2] / n_jumps * jump_intensity
        assert rate == pytest.approx(th, abs=2e-3)


class TestIsotone:
    def test_base_stock_isotone(self, bs_model):
        table = departure_values(bs_model, N_cap=40, horizon=15)
        report = isotone_check(table)
        interior = [v for v in report.violations if not v[3]]
        assert not interior, interior

    def test_boundary_flagged(self, bs_model):
        # tight cap: any violation must be attributed to the reflecting cap
        table = departure_values(bs_model, N_cap=6, horizon=20)
        report = isotone_check(table)
        assert all(v[3] for v in report.violations)

    def test_violation_reported_not_suppressed(self):
        # the protected-item upper system genuinely breaks product-order
        # isotonicity in the environment coordinate near n = 0: decay events
        # consume jump budget
        model = perishable_plus(lam=1.0, mu=2.0, nu=1.0, gamma=4.0, b=3)
        table = departure_values(model, N_cap=60, horizon=12)
        report = isotone_check(table)
        assert not report.isotone
        assert any(not v[3] for v in report.violations)
