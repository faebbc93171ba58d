"""Tests of the benchmark's own oracles and bookkeeping.

    python3 -m pytest perfbench/tests

The closed forms are checked against known values and against a stationary
vector solved here from a generator built with numpy alone; each output
check is fed a deliberately wrong answer and must report it.
"""

import json
import math

import numpy as np
import pytest

from perfbench import oracles as O
from perfbench import run, tracing

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def stationary(Q):
    """Stationary vector of a small irreducible generator by least squares."""
    A = np.vstack([Q.T, np.ones(Q.shape[0])])
    rhs = np.zeros(Q.shape[0] + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


def perishable_o_generator(lam, mu, nu, gamma, b, N):
    """Truncated joint generator of perishable_o: stock 0 blocks the server,
    ageing gamma*k at n = 0 and gamma*(k-1) at n > 0."""
    m = b + 1
    Q = np.zeros(((N + 1) * m, (N + 1) * m))
    for n in range(N + 1):
        for k in range(m):
            i = n * m + k
            if k > 0 and n < N:
                Q[i, i + m] += lam
            if k > 0 and n > 0:
                Q[i, (n - 1) * m + k - 1] += mu
            if k < b:
                Q[i, i + 1] += nu
            loss = gamma * (k if n == 0 else max(k - 1, 0))
            if loss:
                Q[i, i - 1] += loss
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def test_base_stock_known_value():
    assert O.separable_throughput("base_stock", 0.999, 3.0, 5) == pytest.approx(0.9962678467, abs=1e-10)


@pytest.mark.parametrize("lam,mu,nu,gamma", [(1.0, 2.0, 1.0, 2.0), (0.5, 1.0, 3.0, 0.25), (0.9, 1.0, 0.5, 1.0)])
def test_perishable_b1_closed_form_matches_generator(lam, mu, nu, gamma):
    N = 400
    pi = stationary(perishable_o_generator(lam, mu, nu, gamma, 1, N)).reshape(N + 1, 2)
    th = mu * pi[1:, 1].sum()
    assert O.perishable_b1_throughput(lam, mu, nu, gamma) == pytest.approx(th, abs=1e-9)


def test_perishable_b1_reduces_to_base_stock_without_ageing():
    assert O.perishable_b1_throughput(1.0, 2.0, 3.0, 0.0) == pytest.approx(
        O.separable_throughput("base_stock", 1.0, 3.0, 1), abs=1e-12)


@pytest.mark.parametrize("kind", ["base_stock", "perishable_minus", "perishable_plus"])
def test_birth_death_theta_solves_reduced_chain(kind):
    lam, nu, gamma, b = 1.0, 2.5, 0.7, 4
    ageing = O.ageing_rates(kind, gamma, b)
    Q = np.zeros((b + 1, b + 1))
    for k in range(b + 1):
        if k < b:
            Q[k, k + 1] = nu
        if k > 0:
            Q[k, k - 1] = lam + ageing[k]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    assert O.separable_theta(kind, lam, nu, b, gamma) == pytest.approx(stationary(Q), abs=1e-12)


# -- the output checks report wrong answers -------------------------------------


def write_solution(outdir, lam, mu, nu, b, th_offset=0.0, cut_break=None):
    """metrics.json and stationary.csv of base stock from the product form."""
    theta = O.separable_theta("base_stock", lam, nu, b)
    rho, N = lam / mu, 200
    rows = ["n,k,pi"]
    for n in range(N + 1):
        xi = (1 - rho) * rho**n / (1 - rho ** (N + 1))
        scale = 1.5 if n == cut_break else 1.0
        rows += [f"{n},{k},{xi * t * scale!r}" for k, t in enumerate(theta)]
    (outdir / "stationary.csv").write_text("\n".join(rows) + "\n")
    th = O.separable_throughput("base_stock", lam, nu, b) + th_offset
    (outdir / "metrics.json").write_text(json.dumps({"throughput": th}))


def solve_check(outdir):
    exact = O.separable_throughput("base_stock", 1.0, 3.0, 3)
    return O.solve_ok(outdir, 0, lam=1.0, mu=2.0, low=exact, high=exact)


def test_correct_solution_passes(tmp_path):
    write_solution(tmp_path, 1.0, 2.0, 3.0, 3)
    assert solve_check(tmp_path) == []


def test_perturbed_throughput_fails(tmp_path):
    write_solution(tmp_path, 1.0, 2.0, 3.0, 3, th_offset=1e-7)
    assert any("throughput" in msg for msg in solve_check(tmp_path))


def test_broken_level_cut_fails(tmp_path):
    write_solution(tmp_path, 1.0, 2.0, 3.0, 3, cut_break=40)
    assert any("level cut" in msg for msg in solve_check(tmp_path))


def test_wrong_exit_code_fails(tmp_path):
    write_solution(tmp_path, 1.0, 2.0, 3.0, 3)
    exact = O.separable_throughput("base_stock", 1.0, 3.0, 3)
    assert O.solve_ok(tmp_path, 1, lam=1.0, mu=2.0, low=exact, high=exact)


def write_bounds(outdir, th_minus, th_o, th_plus):
    (outdir / "bounds.json").write_text(json.dumps({
        "TH_minus": th_minus, "TH_o_truncated": th_o, "TH_plus": th_plus, "ordering_holds": True}))


def test_true_bounds_pass(tmp_path):
    th_minus, th_plus = O.perishable_bounds(1.0, 1.0, 2.0, 2)
    write_bounds(tmp_path, th_minus, (th_minus + th_plus) / 2, th_plus)
    assert O.bounds_ok(tmp_path, 0, 1.0, 2.0, 1.0, 2.0, 2) == []


def test_swapped_bounds_fail(tmp_path):
    th_minus, th_plus = O.perishable_bounds(1.0, 1.0, 2.0, 2)
    write_bounds(tmp_path, th_plus, (th_minus + th_plus) / 2, th_minus)
    assert len(O.bounds_ok(tmp_path, 0, 1.0, 2.0, 1.0, 2.0, 2)) >= 2


def test_target_outside_bounds_fails(tmp_path):
    th_minus, th_plus = O.perishable_bounds(1.0, 1.0, 2.0, 2)
    write_bounds(tmp_path, th_minus, th_plus + 1e-6, th_plus)
    assert any("ordering" in msg for msg in O.bounds_ok(tmp_path, 0, 1.0, 2.0, 1.0, 2.0, 2))


def test_sweep_with_swapped_columns_fails(tmp_path):
    th_minus, th_plus = O.perishable_bounds(1.0, 1.0, 2.0, 2)
    (tmp_path / "sweep.csv").write_text(f"gamma,TH_minus,TH_o,TH_plus\n2.0,{th_plus!r},{th_plus!r},{th_minus!r}\n")
    assert O.sweep_ok(tmp_path, 0, 1.0, 2.0, 1.0, 2)


def test_simulation_tolerance():
    exact = 0.5
    rec = {"mean": exact, "half_width": 0.01, "per_replication": [0.5] * 10, "total_jumps": 100}
    assert O.check_sim_estimate(rec, 1000.0, exact, exact) == []
    tol = O.sim_tolerance(rec, 1000.0, exact)
    assert tol == pytest.approx(O.CI_WIDTHS * 0.01)
    rec["mean"] = exact + 1.01 * tol
    assert O.check_sim_estimate(rec, 1000.0, exact, exact)


def test_few_replications_ignore_the_t_interval():
    """With two replications the t-interval's width says little; a 10% error
    on a long trajectory must still fail, whatever half-width is reported."""
    exact = 0.95
    rec = {"mean": exact, "half_width": 0.1, "per_replication": [0.95] * 2, "total_jumps": 100}
    assert O.sim_tolerance(rec, 2e4, exact) == pytest.approx(O.SIM_SIGMAS * math.sqrt(exact / (2 * 18000.0)))
    rec["mean"] = exact * 1.1
    assert O.check_sim_estimate(rec, 2e4, exact, exact)


# -- bookkeeping -------------------------------------------------------------------


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["cli", 0.0, 10.0, None], ["numerics.auto_truncate", 1.0, 9.0, 0],
                    ["numerics.solve", 2.0, 5.0, 1], ["numerics.metrics", 5.0, 6.0, 1]]
    out = tracer.summary()
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["numerics.solve_s"] == pytest.approx(4.0 + 3.0)
    assert out["numerics.metrics_s"] == pytest.approx(1.0)


def test_per_layer_names_and_units_match_benchmark(monkeypatch):
    monkeypatch.setattr(run, "import_times", lambda: (1.0, 0.5))
    summary = dict.fromkeys([*tracing.SELF_TIME, *tracing.COUNTS], 1)
    best = {"call": {"plain": {"main_s": 1.0}, "traced": {"main_s": 1.1}}}
    got = {name: unit for name, (_, unit) in run.per_layer(best, [summary]).items()}
    assert got == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_only_the_named_fault_counts_as_failed(tmp_path):
    """A call that raises its named fault is counted in `failed`; any other
    exception, in either runner, is also a failed check."""
    from perfbench.workloads import Call, Workload

    class Runner:
        def run(self, argv, outdir, traced):
            return None, 0.01, {"main_s": 0.01, "raised": argv[0]}, None

    calls = (Call("known", ("Diverging",), None, fails_with="Diverging"), Call("new", ("KeyError",), None))
    wl = Workload("fake", calls, (), in_process=True, round_s=1.0)
    best, attempted, failed, fails, _, rounds = run.run_rounds(wl, Runner(), tmp_path, 2.0, False)
    assert (attempted, failed) == (2 * rounds, 2 * rounds)
    assert fails == ["new: raised KeyError"]
