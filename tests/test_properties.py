"""Randomized property suites over generated models."""

import ast
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from envqueue.ergodicity import SingularSystem, _drift, c_hat, solve_tau
from envqueue.model import (EnvironmentSpec, EnvqueueError, GeneratorRow, JointModel, RateFamily, _blocks,
                            _level_moves, _representatives, generator_row)
from envqueue.numerics import (GeometricTail, NotErgodic, _blocked_excess, _list_levels, _tail_qbd, auto_truncate,
                               autonomous_environment, exact_solve, isolated_throughput, metrics)
from envqueue.separability import (SingularSolve, gth_stationary, product_form, queue_marginal, reachability,
                                   reduced_generator)
from envqueue.catalog import catalog
from envqueue.simulate import SimConfig, ZeroExitRate, _TransitionTable, simulate

from conftest import (check_certify_against_dense, dense_drift, dense_move_rates, first_level_below, reference_blocks,
                      reference_simulate, truncated_generator, value_history)

rates_st = st.floats(min_value=0.05, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def joint_models(draw, max_env=4, max_prefix=2, max_period=2, split=False, sparse=False, separable=False,
                 autonomous=False):
    """Random valid model: random conservative V, random row-stochastic R,
    random positive rates, prefix + periodic tail.  With `split` the
    environment draws its own prefix length and period.  With `sparse` about
    60% of V's off-diagonal entries are zero, each row of R has a single 1 and
    every environment state may be blocked, so the chain is often reducible.
    With `separable` every R is the identity and every V a positive multiple
    of one generator, whose stationary vector is then a common theta.  With
    `autonomous` the environment moves by one positive generator Q at every
    level, V(n) + mu(n) R(n) off the diagonal, of which a working state's
    service completions drive a share that changes with n; the model is named
    "autonomous"."""
    m = draw(st.integers(2, max_env))
    n_prefix = draw(st.integers(0, max_prefix))
    p = draw(st.integers(1, max_period))
    # autonomous: V's tail starts where mu's does, at tail_start + 1
    env_prefix, env_p = n_prefix + autonomous, p
    if split:
        env_prefix, env_p = draw(st.integers(0, max_prefix)), draw(st.integers(1, max_period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V0 = rng.uniform(0.1, 3.0, size=(m, m))

    def rand_V():
        V = rng.uniform(0.1, 3.0) * V0 if separable else rng.uniform(0.1, 3.0, size=(m, m))
        if sparse:
            V *= rng.random((m, m)) >= 0.6
        np.fill_diagonal(V, 0.0)
        np.fill_diagonal(V, -V.sum(axis=1))
        return V

    def rand_R():
        if separable:
            return np.eye(m)
        if autonomous:  # each row stays, or jumps to one state with probability 1/4, 1/2, 3/4 or 1
            share = rng.integers(0, 5, size=m)[:, None] / 4
            return (1.0 - share) * np.eye(m) + share * np.eye(m)[rng.integers(0, m, size=m)]
        if sparse:
            return np.eye(m)[rng.integers(0, m, size=m)]
        R = rng.uniform(0.05, 1.0, size=(m, m))
        return R / R.sum(axis=1, keepdims=True)

    n_blocked = draw(st.integers(0, m if sparse else m - 1))
    blocked = tuple(range(n_blocked))
    # autonomous: multiples of 1/8 up to 5, so that mu(n) R(n) and Q - mu(n) R(n) are exact
    mu_st = st.integers(1, 40).map(lambda i: i / 8) if autonomous else rates_st
    rates = RateFamily(
        lambda_prefix=tuple(draw(rates_st) for _ in range(n_prefix)),
        mu_prefix=tuple(draw(mu_st) for _ in range(n_prefix)),
        lambda_tail=tuple(draw(rates_st) for _ in range(p)),
        mu_tail=tuple(draw(mu_st) for _ in range(p)),
    )
    V_prefix, R_prefix = tuple(rand_V() for _ in range(env_prefix)), tuple(rand_R() for _ in range(env_prefix))
    V_tail, R_tail = tuple(rand_V() for _ in range(env_p)), tuple(rand_R() for _ in range(env_p))
    if autonomous:
        R_prefix = (*R_prefix[:-1], R_tail[-1])  # R(n) repeats from the last prefix level on, with V(n)
        Q = rng.integers(1, 25, size=(m, m)) / 8 + 5.0  # above every mu(n) R(n)

        def level_V(n):
            V = Q.copy()
            if n > 0:  # R(n) as EnvironmentSpec reads it
                R = R_prefix[n - 1] if n <= env_prefix else R_tail[(n - 1 - env_prefix) % env_p]
                V[n_blocked:] -= rates.service(n) * R[n_blocked:]
            np.fill_diagonal(V, 0.0)
            np.fill_diagonal(V, -V.sum(axis=1))
            return V

        V_prefix = tuple(level_V(n) for n in range(env_prefix))
        V_tail = tuple(level_V(env_prefix + i) for i in range(env_p))
    env = EnvironmentSpec(labels=tuple(range(m)), blocked=frozenset(blocked), V_prefix=V_prefix, R_prefix=R_prefix,
                          V_tail=V_tail, R_tail=R_tail)
    return JointModel(rates=rates, env=env, name="autonomous" if autonomous else "random")


@given(joint_models(), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_generator_rows_conservative(model, n):
    for k in range(model.n_env):
        row = generator_row(model, (n, k))
        assert all(rate > 0 for _, rate in row.transitions)
        assert all(nn >= 0 for (nn, _), _ in row.transitions)
        # total outflow equals the sum over listed transitions by construction;
        # check against an independent tally of the three mechanisms
        working = k not in {model.env.labels.index(l) for l in model.env.blocked}
        expect = float(model.V(n)[k].sum() - model.V(n)[k, k])
        if working:
            expect += model.arrival(n)
            if n > 0:
                expect += model.service(n)
        assert row.total_rate() == pytest.approx(expect, rel=1e-12, abs=1e-12)


@given(joint_models(split=True), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_generator_row_reads_the_level_moves_row(model, n):
    # `generator_row` reads row k alone; the row of the whole level's moves is the reference
    moves = _level_moves(model, [n])
    m = model.n_env
    for k in range(m):
        count = np.count_nonzero(moves.rate[0, k])
        shift, rate = (a[0, k, :count].tolist() for a in (moves.shift, moves.rate))
        out = tuple(((n + s // m, s % m), r) for s, r in zip(shift, rate))
        assert generator_row(model, (n, k)) == GeneratorRow(state=(n, k), transitions=out,
                                                            diagonal=-sum(r for _, r in out))


@given(joint_models(), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_blocked_states_freeze_queue(model, n):
    blocked = set(model.blocked_indices().tolist())
    for k in blocked:
        row = generator_row(model, (n, k))
        assert all(nn == n for (nn, _), _ in row.transitions)


@given(joint_models())
@settings(max_examples=60, deadline=None)
def test_generator_rows_eventually_periodic(model):
    base = model.tail_start + 1
    p = model.period
    for k in range(model.n_env):
        r1 = generator_row(model, (base, k))
        r2 = generator_row(model, (base + p, k))
        assert {((nn - base, kk), rate) for (nn, kk), rate in r1.transitions} == {
            ((nn - base - p, kk), rate) for (nn, kk), rate in r2.transitions
        }


@given(joint_models(split=True), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_level_moves_are_the_nonzeros_of_dense_rows(model, above):
    # the representative levels and a capped level N, as `departure_values` lists them
    N = model.tail_start + model.period + above
    moves = _level_moves(model, _representatives(model), cap=N)
    dense = dense_move_rates(*reference_blocks(model, N))
    m = model.n_env
    assert moves.rate.shape == moves.shift.shape == dense.shape[:2] + (moves.rate.shape[2],)
    counts = np.count_nonzero(dense, axis=2)
    assert moves.rate.shape[2] == max(counts.max(), 1)
    for level, k in np.ndindex(*dense.shape[:2]):
        j = np.flatnonzero(dense[level, k])
        count = counts[level, k]
        # the target's flat index less the first index of the level
        assert moves.shift[level, k, :count].tolist() == [(1, -1, 0)[i // m] * m + i % m for i in j.tolist()]
        assert moves.rate[level, k, :count].tolist() == dense[level, k, j].tolist()
        # padding: zero rates that stay at the state
        assert not moves.rate[level, k, count:].any() and (moves.shift[level, k, count:] == k).all()


@given(joint_models(max_env=4, max_prefix=3, max_period=3, split=True, sparse=True))
@settings(max_examples=200, deadline=None)
def test_reachability_matches_a_deep_truncation(model):
    # the verdict, decided with no truncation, against scipy's strong components of the dense generator of the
    # chain capped 40 levels past the tail, whose closed classes are those of the infinite chain
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    T0, p, m = model.tail_start + 1, model.period, model.n_env
    N = T0 + p + 40
    Q = truncated_generator(model, N) != 0.0
    _, comp = csgraph.connected_components(Q, connection="strong")
    closed = sorted({int(c) for c in comp} - set(comp[np.nonzero(Q & (comp[:, None] != comp[None, :]))[0]].tolist()))
    reach = reachability(model)
    if reach is None:
        # irreducible: one closed class, which holds every state 20 levels or more below the cap (a state just
        # below it may be entered only from above the cap)
        assert closed == [comp[0]] and (comp[: (N - 20) * m] == comp[0]).all()
        return
    reason, detail = reach
    if reason == "TransientStates":
        # one closed class, which misses the state named
        n, k = ast.literal_eval(detail.split("state ")[1].split(" is outside")[0])
        assert len(closed) == 1 and comp[n * m + k] != closed[0]
        return
    # several: the states named lie in one closed class, and there are as many closed classes as named, or
    # one every p levels
    assert reason == "SeveralClosedClasses"
    count, example = detail.split(" closed classes; one holds ")
    held = {int(comp[n * m + k]) for n, k in ast.literal_eval(example)}
    assert len(held) == 1 and held <= set(closed)
    assert len(closed) >= 40 // p if count == "infinitely many" else len(closed) == int(count)


@given(joint_models(split=True), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_blocks_are_the_reference_blocks(model, above):
    # placed from the padded move rows, byte for byte the blocks read from V, R, lambda and mu
    N = model.tail_start + model.period + above
    for placed, reference in ((_blocks(model), reference_blocks(model)),
                              (_blocks(model, cap=N), reference_blocks(model, N))):
        assert [a.shape for a in placed] == [a.shape for a in reference]
        assert [a.tobytes() for a in placed] == [a.tobytes() for a in reference]


@given(joint_models(split=True), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_certify_matches_dense_rows(model, seed):
    # the drift of any L bit for bit, and certify's outcome of both kinds
    values = np.random.default_rng(seed).uniform(0.0, 50.0, size=(model.tail_start + 2 * model.period + 4, model.n_env))
    drift, slack = _drift(model, values)
    dense, dense_slack = dense_drift(model, values)
    assert np.array_equal(drift, dense)
    np.testing.assert_allclose(slack, dense_slack, rtol=1e-14)
    for kind in ("linear_drift", "hitting_time"):
        check_certify_against_dense(model, kind)


@given(joint_models(max_prefix=4, max_period=3, split=True))
@settings(max_examples=60, deadline=None)
def test_periodic_lookups_and_queue_marginal(model):
    # rates and environment keep their own prefix and period, so the merged
    # N0 and p differ from each part's own
    rates, env = model.rates, model.env
    assert (model.tail_start, model.period) == (max(rates.tail_start, env.tail_start),
                                                math.lcm(rates.period, env.period))

    def expand(prefix, tail):  # prefix + repeated tail, 40 entries at least
        return list(prefix) + list(tail) * 40

    lam, mu = expand(rates.lambda_prefix, rates.lambda_tail), expand(rates.mu_prefix, rates.mu_tail)
    Vs, Rs = expand(env.V_prefix, env.V_tail), expand(env.R_prefix, env.R_tail)
    assert model.service(0) == 0.0
    for lookup, n in ((model.arrival, -1), (model.service, -1), (model.V, -1), (model.R, 0)):
        with pytest.raises(IndexError):
            lookup(n)
    for n in range(40):
        assert (model.arrival(n), model.service(n + 1)) == (lam[n], mu[n])
        assert model.V(n) is Vs[n] and model.R(n + 1) is Rs[n]
    marginal = queue_marginal(model)
    with pytest.raises(IndexError):
        marginal.weight(-1)
    brute = 1.0
    for n in range(40):
        assert marginal.weight(n) == pytest.approx(brute, rel=1e-12)
        brute *= lam[n] / mu[n]
    r = marginal.tail_ratio
    # past N0 + p K the weights left sum to at most r^K C, below 1e-14 C
    periods = math.ceil(math.log(1e-14) / math.log(r)) if 0.0 < r < 1.0 else 0
    if marginal.summable and periods <= 2000:
        partial = math.fsum(marginal.weight(n) for n in range(model.tail_start + model.period * periods))
        assert marginal.C == pytest.approx(partial, rel=1e-12)


@given(joint_models(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_reduced_generator_row_sums(model, n):
    Qr = reduced_generator(model, n)
    assert np.abs(Qr.sum(axis=1)).max() < 1e-12
    off_diag = Qr - np.diag(np.diag(Qr))
    assert off_diag.min() >= 0.0


@given(joint_models(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_tau_residuals(model, n):
    try:
        table = solve_tau(model, n)
    except SingularSystem:
        return  # degenerate random draw; the error itself is the contract
    assert table.residual <= 1e-10
    blocked = model.blocked_indices()
    assert np.all(table.tau[blocked] > 0.0) if blocked.size else True


@given(joint_models())
@settings(max_examples=30, deadline=None)
def test_c_hat_tail_periodic(model):
    base = model.tail_start
    p = model.period
    try:
        a = c_hat(model, base)
        b = c_hat(model, base + p)
    except SingularSystem:
        return
    if math.isinf(a) or math.isinf(b):
        assert a == b
    else:
        assert a == pytest.approx(b, rel=1e-12)


@given(st.integers(2, 4))
@settings(max_examples=10, deadline=None)
def test_gth_nonnegative_probability(m):
    rng = np.random.default_rng(m)
    A = rng.uniform(0.01, 1.0, size=(m, m))
    np.fill_diagonal(A, 0.0)
    Q = A - np.diag(A.sum(axis=1))
    pi = gth_stationary(Q)
    assert pi.min() >= 0.0
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(pi @ Q).max() < 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_simulation_seed_determinism(seed):
    from envqueue.catalog import base_stock

    model = base_stock(lam=1, mu=2, nu=1, b=2)
    config = SimConfig(seed=seed, horizon=50.0, replications=2)
    a = simulate(model, config)
    b = simulate(model, config)
    assert a.estimate.per_replication == b.estimate.per_replication


# one model of each catalog family, the on-off ones with level-dependent rates up to depth 2
CATALOG_MODELS = [catalog(name, **params) for name, params in [
    ("mm1_plain", dict(lam=1, mu=2)),
    ("base_stock", dict(lam=1, mu=2, nu=1, b=2)),
    ("perishable_o", dict(lam=1, mu=2, nu=1, gamma=2, b=3)),
    ("perishable_minus", dict(lam=1, mu=2, nu=1, gamma=2, b=3)),
    ("perishable_plus", dict(lam=1, mu=2, nu=1, gamma=0.5, b=3)),
    ("onoff_a", dict(eta=0.5, gamma=1, lam=1.5, mu=3, depth=2)),
    ("onoff_b", dict(lam=0.2, gamma=1, eta=2, depth=2)),
]]


@given(st.one_of(joint_models(max_period=6), st.sampled_from(CATALOG_MODELS)), st.integers(0, 2**70),
       st.floats(0.01, 2000.0), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_simulation_matches_the_reference_loop(model, seed, horizon, replications):
    # the kernel against the jump loop with a SeedSequence and two generators per replication
    config = SimConfig(seed=seed, horizon=horizon, replications=replications)
    try:
        table = _TransitionTable(model)
    except ZeroExitRate:
        with pytest.raises(ZeroExitRate):
            simulate(model, config)
        return
    result = simulate(model, config)
    per_replication, jumps, departures = reference_simulate(table, config)
    assert result.estimate.per_replication == per_replication
    assert result.total_jumps == jumps
    assert result.total_departures == departures


@given(joint_models(max_env=3, max_prefix=1, max_period=1), st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_departure_values_monotone_in_horizon_and_bounded(model, horizon):
    try:
        h = value_history(model, N_cap=8, horizon=horizon)
    except Exception:
        # fully blocked environments can make truncated states absorbing
        blocked = model.blocked_indices()
        assert blocked.size >= 1
        return
    assert np.all(h[1:] >= h[:-1] - 1e-12)  # one more jump never hurts
    assert h[1].max() <= 1.0 + 1e-12  # v_1 is a probability
    assert h[-1].max() <= horizon + 1e-9  # at most one departure per jump


NEUTS_RTOL = 1e-12  # the fraction of the level-crossing rates within which Neuts' drift is round-off


def neuts_drift(model):
    """Neuts' mean drift down - up of the tail QBD, read from the level blocks, and up + down."""
    A0, A1, A2 = _tail_qbd(model, *_blocks(model))
    alpha = gth_stationary(A0 + A1 + A2)
    up, down = float(alpha @ A0.sum(axis=1)), float(alpha @ A2.sum(axis=1))
    return down - up, up + down


@given(joint_models(max_env=4, max_prefix=3, max_period=3, split=True))
@settings(max_examples=400, deadline=None)
def test_summable_agrees_with_neuts_drift(model):
    # the tail ratio decides ergodicity; Neuts' mean drift is the independent verdict
    # wherever it clears its round-off (joint_models leaves a state working)
    drift, rates = neuts_drift(model)
    if abs(drift) > NEUTS_RTOL * rates:
        assert queue_marginal(model).summable == (drift > 0.0)


def test_all_blocked_closed_tail_class_refused():
    # from level 1 on "on" falls into "off", which is blocked and never left: Neuts' drift is 0 - 0, r = 1/2
    # calls the queue ergodic, and the reachability verdict finds a closed class at every level from 1 on
    env = EnvironmentSpec(labels=("off", "on"), blocked=frozenset(("off",)),
                          V_prefix=(np.array([[-1.0, 1.0], [0.0, 0.0]]),), R_prefix=(np.eye(2),),
                          V_tail=(np.array([[0.0, 0.0], [1.0, -1.0]]),), R_tail=(np.eye(2),))
    model = JointModel(rates=RateFamily.constant(1.0, 2.0), env=env)
    assert neuts_drift(model) == (0.0, 0.0) and queue_marginal(model).summable
    with pytest.raises(NotErgodic, match=r"^infinitely many closed classes; one holds \[\(1, 'off'\)\]$"):
        exact_solve(model)


@given(joint_models(max_env=4, max_prefix=3, max_period=3, split=True, sparse=True))
@settings(max_examples=300, deadline=None)
def test_one_ergodicity_verdict(model):
    # product_form, certify and exact_solve read one ergodicity verdict and one reachability verdict: they refuse
    # the same models, with the same text
    from envqueue.ergodicity import certify

    pf = product_form(model)
    refusals = [pf.detail if getattr(pf, "reason", None) in ("NoWorkingState", "NotSummable", "SeveralClosedClasses")
                else None]
    try:
        cert = certify(model)
        refusals.append(cert.detail if getattr(cert, "reason", None) in ("NecessaryFails", "SeveralClosedClasses")
                        else None)
    except EnvqueueError:  # no certificate, and no verdict either
        refusals.append(None)
    try:
        exact_solve(model)
        refusals.append(None)
    except NotErgodic as exc:
        refusals.append(str(exc))
    except EnvqueueError:  # a singular or non-convergent solve of a model that may be ergodic
        refusals.append(None)
    assert refusals[0] == refusals[1] == refusals[2]
    # a missing working state is the first reason
    assert (getattr(pf, "reason", None) == "NoWorkingState") == (not model.env.working_mask().any())


def too_heavy(exc, model) -> bool:
    """Whether a listing refused an ergodic tail too heavy to list: it is too long to allocate.
    Only a product-form listing may also find no level below tol, where round-off hides xi's
    fall: the exact path's listing is sized by a bound on its mass above, so there that
    refusal means the bound fell short."""
    if not str(exc).startswith("the listing to tol"):
        return False
    pf = product_form(model)
    return " needs N ~ " in str(exc) or (pf.separable and pf.irreducible)


@given(joint_models(max_env=4, max_prefix=3, max_period=3))
@settings(max_examples=40, deadline=None)
def test_exact_solve_against_truncation_and_certificates(model):
    # an ergodic verdict is cross-checked against the truncated chain, a
    # non-ergodic one against the Lyapunov certificates, which must fail
    from envqueue.ergodicity import LyapunovCertificate, certify
    from envqueue.numerics import solve_truncated

    try:
        exact = auto_truncate(model)
    except NotErgodic:
        for kind in ("linear_drift", "hitting_time"):
            assert not isinstance(certify(model, kind=kind), LyapunovCertificate)
        return
    except ValueError as exc:
        assert too_heavy(exc, model), exc
        return
    assert exact.residual < 1e-12
    if isinstance(exact.tail, GeometricTail):
        assert exact.N == first_level_below(model, exact.tail, 1e-9)[0]
    # c xi's mass above n, which sizes the exact path's listing, bounds the mass above every listed tail level
    B, _, D = _blocks(model)
    levels = np.arange(model.tail_start + model.period, exact.N + 1)
    mass = exact.pi.sum(axis=1) * (1.0 - exact.truncation_estimate)
    above = exact.truncation_estimate + np.append(np.cumsum(mass[::-1])[::-1], 0.0)[levels + 1]
    assert np.all(above <= _blocked_excess(model, B, D) * queue_marginal(model).mass_above(levels) * (1 + 1e-9))
    if exact.N > 400:
        return  # too heavy a tail for a truncation at 600 to be an oracle
    a, b = metrics(exact, model), metrics(solve_truncated(model, 600), model)
    for field in ("throughput", "mean_queue_length", "blocked_probability", "loss_rate"):
        assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9, abs=1e-9), field


@given(st.one_of(joint_models(split=True), joint_models(split=True, separable=True)))
@settings(max_examples=60, deadline=None)
def test_product_form_answers_agree_with_exact_solve(model):
    # exact_solve never reads the product form, so it checks the answers auto_truncate reads from it
    pf = product_form(model)
    try:
        exact = exact_solve(model)
    except (NotErgodic, SingularSolve):
        return
    if not pf.separable:
        return
    try:
        sol = auto_truncate(model)
    except ValueError as exc:
        assert too_heavy(exc, model), exc
        return
    a, b = metrics(sol, model), metrics(exact, model)
    for field in ("throughput", "mean_queue_length", "blocked_probability", "loss_rate"):
        assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9, abs=1e-9), field
    listed, mass_above, N = _list_levels(model, exact, _blocks(model), 1e-9)
    N_ref, mass_ref = first_level_below(model, exact, 1e-9)
    assert N == N_ref and mass_above == pytest.approx(mass_ref, rel=1e-12, abs=0.0)
    rows = min(200, sol.N + 1, len(listed))
    # sol.pi is renormalized over levels 0..N
    assert np.abs(sol.pi[:rows] * (1.0 - sol.truncation_estimate) - listed[:rows]).max() <= 1e-12


@given(st.one_of(joint_models(), joint_models(split=True, separable=True), joint_models(autonomous=True)))
@settings(max_examples=90, deadline=None)
def test_autonomous_environment_answers_as_the_exact_solve(model):
    # where the environment is a Markov chain on its own, theta_env(W) TH_iso is the throughput
    blocks = _blocks(model)
    try:
        theta = autonomous_environment(model, *blocks)
    except NotErgodic as refused:
        with pytest.raises(NotErgodic) as exact_refused:
            exact_solve(model)
        assert str(exact_refused.value) == str(refused)
        return
    assert theta is not None or model.name != "autonomous"
    if theta is None:
        return
    exact = metrics(exact_solve(model), model)
    working = model.env.working_mask()
    th = float(theta[working].sum()) * isolated_throughput(model)
    assert th == pytest.approx(exact.throughput, rel=1e-12, abs=0)
    assert theta[~working].sum() == pytest.approx(exact.blocked_probability, rel=1e-12, abs=1e-15)


@given(
    mu=st.floats(0.5, 3.0),
    rho=st.floats(0.05, 0.999),
    ageing=st.floats(0.01, 0.99),
    nu=st.floats(0.2, 5.0),
    b=st.integers(1, 50),
)
@settings(max_examples=100, deadline=None)
def test_bound_ordering_in_conjecture_regime(mu, rho, ageing, nu, b):
    # gamma < lam < mu: the regime where the paper only conjectures
    # TH- <= TH_o <= TH+; gamma_sweep does no value iteration.  The ordering
    # holds up to round-off: the smallest margins seen were about -1e-15.
    from envqueue.bounds import gamma_sweep

    lam = rho * mu
    gamma = ageing * lam
    [(_, th_minus, th_o, th_plus)] = gamma_sweep(lam, mu, nu, b, [gamma])
    assert th_minus <= th_o + 1e-9
    assert th_o <= th_plus + 1e-9


positive_st = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@given(rates=st.tuples(positive_st, positive_st).filter(lambda pair: pair[0] != pair[1]).map(sorted),
       nu=positive_st, gamma=st.floats(min_value=0.0, max_value=1e300), b=st.integers(1, 60))
@example(rates=(1.0, 2.0), nu=1.0, gamma=0.0, b=1)
@example(rates=(1.0, 2.0), nu=1.0, gamma=5e-324, b=60)
@example(rates=(1.0, 2.0), nu=1.0, gamma=1e300, b=60)
@settings(max_examples=100, deadline=None)
def test_bounding_systems_age_in_order(rates, nu, gamma, b):
    # the catalog builds the ageing rates V_n[k, k-1] ordered plus <= o <= minus on every level
    from envqueue.bounds import build_triple

    lower, target, upper = build_triple(*rates, nu, gamma, b)
    for n in range(target.tail_start + target.period + 1):
        minus, o, plus = (np.diagonal(system.V(n), -1) for system in (lower, target, upper))
        assert np.all(plus <= o) and np.all(o <= minus), n
