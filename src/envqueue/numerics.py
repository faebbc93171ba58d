"""Exact stationary analysis of the joint chain.

States are indexed level-major (level = queue length), giving a block
tridiagonal generator: B_n (local), U_n (up), D_n (down), built in `model`.
From T0 = tail_start + 1 on the blocks repeat with period p, so grouping p
levels into one block level turns the tail into a level-independent
quasi-birth-death process with blocks A0 (up), A1 (local), A2 (down).

`exact_solve` solves the infinite chain exactly and lists no level: the
isolated queue's tail ratio decides ergodicity, logarithmic reduction gives G and
R = A0 (-A1 - A0 G)^{-1}, level elimination seeded with A1 + A0 G gives the
boundary, and the tail sums come from two solves with A0 + A1 + A2, whose
redundant equation gives way to the tail's working mass P(W) xi(n): the queue
in working time is the isolated queue.  No metric solves with I - R.
`auto_truncate` lists the levels 0..N that `solve` exports: a separable
model whose chain `reachability` finds irreducible from its product form
xi(n) theta, any other from `exact_solve`, into rows allocated once to a
closed-form bound on N, or refused before allocating; the exact listing
fills every row, then sums the mass above each level from the top.
`autonomous_environment` finds where the environment moves alike at every
level, so that its stationary law alone gives P(W) and, with
`isolated_throughput`, the throughput.

`solve_truncated` solves the chain capped at N by setting lambda(N) = 0
(reflecting); all other rates are kept, so the generator stays conservative
and the level-cut identity remains exact for interior levels.  It is the
explicit `--N` path and the independent oracle for the exact solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .format17 import PAD, WORDS, pad_words, write_g17
from .model import (LEVEL_WINDOW, EnvqueueError, JointModel, _balance_residual, _blocks, _boundary_levels,
                    _capped_classes, _example, _level_classes, _level_graph, _representatives, _tail_qbd)
from .separability import (ProductFormResult, QueueMarginal, SingularSolve, _closed_classes, _one_component,
                           gth_stationary, product_form, queue_marginal, reachability)

LISTING_LIMIT = 2**27  # values (1 GiB of float64) a listing may hold
LOG_REDUCTION_STEPS = 100
CUT_TOL = 1e-8  # largest relative level-cut defect `check_cut_structure` passes


class NotConvergent(EnvqueueError):
    pass


class NotIrreducibleTruncation(EnvqueueError):
    pass


class NotErgodic(EnvqueueError):
    """No state is working, the isolated queue's tail ratio is not below 1, or
    the joint chain has several closed classes."""


@dataclass(frozen=True)
class GeometricTail:
    """The exact stationary vector of the infinite chain: `head` holds levels
    0..start-1 and block level j >= 0 (levels start + j p .. start + j p + p - 1,
    concatenated) holds x0 R^j."""

    start: int
    period: int
    head: np.ndarray  # shape (start, |K|)
    x0: np.ndarray  # shape (p |K|,)
    R: np.ndarray  # shape (p |K|, p |K|), spectral radius < 1
    S: np.ndarray  # sum_j x_j, shape (p |K|,)
    S1: np.ndarray  # sum_j j x_j, shape (p |K|,)
    R_residual: float  # ||A0 + R A1 + R^2 A2|| in the max-row-sum norm
    marginal: QueueMarginal  # the isolated queue's, read once per solve

    def level_sums(self):
        """Stationary mass by rate class, as (levels, mass, extra): one row per
        head level, then per tail position i the mass of all levels
        start + i + j p, j >= 0.  levels[i] is the first level of row i, so
        that sum_n n pi_n 1 = sum_i levels[i] mass[i] 1 + extra."""
        levels = np.arange(self.start + self.period)
        mass = np.concatenate([self.head, self.S.reshape(self.period, -1)])
        return levels, mass, self.period * float(self.S1.sum())


@dataclass(frozen=True)
class TruncatedSolution:
    """Levels 0..N of a stationary vector.  `auto_truncate` answers a
    separable model whose joint chain `reachability` finds irreducible from
    its product form (`tail` is the `ProductFormResult`), and any other
    model from `exact_solve` (`tail` is the `GeometricTail`);
    `solve_truncated` solves the chain capped at N (no `tail`).  So only a
    separable model's listing and metrics differ from the exact solve's: by
    round-off, and in small probabilities, which keep their relative digits."""

    N: int
    pi: np.ndarray  # shape (N+1, |K|), sums to 1
    residual: float  # max balance defect pi_{n-1} U + pi_n B + pi_{n+1} D over levels 0..N
    # solve_truncated: mass in the top tenth of levels; auto_truncate: the
    # exact stationary mass above N
    truncation_estimate: float
    tail: GeometricTail | ProductFormResult | None = None  # auto_truncate only

    def level_sums(self):
        """As `GeometricTail.level_sums`: the tail's, or one row per level."""
        return self.tail.level_sums() if self.tail is not None else (np.arange(self.N + 1), self.pi, 0.0)


def _solve_elimination(B, U, D) -> list:
    """Level-censoring sweep over levels 0..L (L = len(B) - 1): eliminate
    levels from the top downward, solve the censored chain at level 0 by GTH,
    then propagate upward.  Level n has local block B[n], up block U[n]
    (n < L) and down block D[n] (n > 0); the top level may be larger than
    the others.  Returns the unnormalized level vectors; a singular C_n
    raises LinAlgError naming level n."""
    L = len(B) - 1
    # C_n is the generator of the chain censored to levels <= n, restricted to
    # level n; (-C_n)^{-1} D_n is where it enters level n - 1
    C = [None] * (L + 1)
    C[L] = B[L]
    for n in range(L, 0, -1):
        try:
            Cn = B[n - 1] + U[n - 1] @ np.linalg.solve(-C[n], D[n])
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"{exc} eliminating level {n}") from exc
        # the censored chain leaves level n - 1 only downward, so C_{n-1} 1 =
        # -D_{n-1} 1; setting the diagonal from that (as GTH does) keeps the
        # sweep conservative where round-off would otherwise grow with an
        # upward drift
        np.fill_diagonal(Cn, 0.0)
        np.fill_diagonal(Cn, -(Cn.sum(axis=1) + D[n - 1].sum(axis=1)))
        C[n - 1] = Cn
    pi0 = gth_stationary(C[0])
    # forward propagation with per-level rescaling in log space, so steeply
    # growing unnormalized levels (heavy traffic at large N) cannot overflow
    ys, logw = [pi0], [0.0]
    for n in range(1, L + 1):
        y = np.linalg.solve(-C[n].T, ys[-1] @ U[n - 1])
        scale = float(np.abs(y).max())
        if scale > 0.0 and np.isfinite(scale):
            ys.append(y / scale)
            logw.append(logw[-1] + math.log(scale))
        else:
            ys.append(np.zeros_like(y))
            logw.append(float("-inf"))
    shift = max(logw)
    return [y * math.exp(lw - shift) for y, lw in zip(ys, logw)]


def _components_below_cap(model: JointModel, per_level) -> str:
    """The strong components below the cap of the chain whose level blocks are `per_level`, for an error message."""
    comp = _level_graph(*per_level)[0][: (len(per_level[0]) - 1) * model.n_env]
    if (among := np.unique(comp)).size < 2:
        return ""
    return f"; {among.size} strong components below the cap: example component: {_example(model, comp, among)}"


def solve_truncated(model: JointModel, N: int) -> TruncatedSolution:
    """Stationary vector of the truncated chain (queue capped at N).  Where the
    elimination breaks, NotIrreducibleTruncation names the level and the
    strong components below the cap."""
    if N < model.tail_start + model.period + 2:
        raise ValueError("truncation must cover the prefix plus one tail period")
    B, U, D = _blocks(model, cap=N)
    cls = _capped_classes(model, N)
    per_level = [[blocks[c] for c in cls] for blocks in (B, U, D)]
    try:
        pi_flat = np.concatenate(_solve_elimination(*per_level))
    except (np.linalg.LinAlgError, SingularSolve) as exc:
        # GTH raises SingularSolve where the chain censored to level 0 is reducible
        at = " eliminating level 0" if isinstance(exc, SingularSolve) else ""
        found = _components_below_cap(model, per_level)
        raise NotIrreducibleTruncation(f"{exc}{at} of the chain capped at N = {N}{found}") from exc
    if not np.all(np.isfinite(pi_flat)):
        raise NotIrreducibleTruncation("solver produced non-finite entries")
    pi_flat = np.maximum(pi_flat, 0.0)
    pi = (pi_flat / pi_flat.sum()).reshape(N + 1, model.n_env)
    residual, _ = _balance_residual(pi, B, U, D, cls, N + 1)
    top = pi[N - max(N // 10, 1) + 1 :].sum()
    return TruncatedSolution(N=N, pi=pi, residual=residual, truncation_estimate=float(top))


# -- exact solve of the infinite chain ------------------------------------------


def _log_reduction(A0, A1, A2) -> np.ndarray:
    """Minimal nonnegative solution G of A2 + A1 G + A0 G^2 = 0 by logarithmic
    reduction (Latouche & Ramaswami, J. Appl. Prob. 30, 1993); G is stochastic
    for a positive recurrent tail.  Near rho = 1 plain reduction loses digits
    (G's row sums 1e-10 off at 0.99999), so it solves for G - 1 u, which has
    G's eigenvalue 1 moved to 0 (He, Meini & Rhee, SIAM J. Matrix Anal. Appl.
    23, 2001).  u, A2's entry distribution, keeps G's zero columns zero, and
    one step G <- (-A1 - A0 G)^{-1} A2 mends the signs that round-off flipped."""
    I = np.eye(len(A1))
    shift = np.outer(np.ones(len(A1)), A2.sum(axis=0) / A2.sum())  # 1 u, with u 1 = 1
    A1_shifted = A1 + A0 @ shift
    H0 = np.linalg.solve(-A1_shifted, A0)
    H2 = np.linalg.solve(-A1_shifted, A2 - A2 @ shift)
    G, T = H2.copy(), H0.copy()
    for _ in range(LOG_REDUCTION_STEPS):
        W = I - H0 @ H2 - H2 @ H0
        H0 = np.linalg.solve(W, H0 @ H0)
        H2 = np.linalg.solve(W, H2 @ H2)
        step = T @ H2
        G += step
        T = T @ H0
        if np.abs(step).max() <= np.finfo(float).eps * np.abs(G).max():
            break
    else:
        raise NotConvergent(f"logarithmic reduction did not converge in {LOG_REDUCTION_STEPS} steps")
    G = np.linalg.solve(-A1 - A0 @ np.maximum(G + shift, 0.0), A2)
    defect = float(np.abs(1.0 - G.sum(axis=1)).max())
    if defect > 1e-10:
        raise NotConvergent(f"G is not stochastic: row sums miss 1 by {defect:.3e}")
    return G


def _listing_level(model: JointModel, marginal: QueueMarginal, c: float, tol: float):
    """N_max >= tail_start + period, the first level where c times xi's mass above it, a bound on
    the stationary mass above it, is below tol, and that bound.  From N0 on xi's mass above falls by
    the rounded r per period, so the bound is at most tol r one period after `periods`.  A listing
    past `LISTING_LIMIT` values, or one whose fall round-off hides, is refused at once."""
    min_level = model.tail_start + model.period
    first = c * float(marginal.mass_above(min_level))
    periods = math.log(tol / first) / (math.log(marginal.tail_ratio) or -marginal.gap) if first >= tol else 0.0
    top = min_level + marginal.period * (math.ceil(periods) + 1)
    if (top + 2) * model.n_env > LISTING_LIMIT:
        raise ValueError(f"the listing to tol = {tol} needs N ~ {top}, more than {LISTING_LIMIT} values")
    above = c * marginal.mass_above(np.arange(min_level, top + 1))
    if not (hits := np.flatnonzero(above < tol)).size:
        raise ValueError(f"the listing to tol = {tol} finds no level below tol by N = {top}")
    return min_level + int(hits[0]), float(above[hits[0]])


def _blocked_excess(model: JointModel, B, D) -> float:
    """c, with the stationary mass above tail level n at most c P(W) xi's mass
    above n.  A blocked state has no arrivals and no service completions, so
    pi(n, Bk) = [pi(n, W) V_WB + pi(n + 1, W) D_WB] (-V_BB)^{-1}: the working
    mass of level m, in tail position i, puts at most c1_i times itself into
    m's blocked states and c2_{i-1} times into m - 1's, c1_i and c2_i the largest
    row sums of V_WB (-V_BB)^{-1} and D_WB (-V_BB)^{-1} at i.  c = max_i 1 + c1_i + c2_{i-1}."""
    blocked, T0, p = ~model.env.working_mask(), model.tail_start + 1, model.period
    local, down = B[T0 : T0 + p], D[T0 + np.arange(1, p + 1) % p]  # D of level n + 1
    to_working = np.linalg.solve(-local[:, blocked][:, :, blocked], np.ones((p, blocked.sum(), 1)))
    into = np.stack([local, down])[:, :, ~blocked][..., blocked]  # V_WB and D_WB per tail position
    c1, c2 = (into @ to_working)[..., 0].max(axis=2)
    return float(1.0 + (c1 + np.roll(c2, 1)).max())


def _list_levels(model: JointModel, tail: GeometricTail, blocks, tol: float):
    """Exact stationary levels 0..N+1 and the mass above N, N >= tail_start + p the first level
    with mass above it below tol.  Levels 0..N_max+1 (`_listing_level`) and one block level more,
    for N past N_max by round-off where c is exact, are allocated at once and filled with the bits
    of `x = x @ R`; the mass above every level is then summed from the top, smallest first."""
    m, T, p = model.n_env, tail.start, tail.period
    N_max, _ = _listing_level(model, tail.marginal, _blocked_excess(model, blocks[0], blocks[2]), tol)
    M, count = tail.R.shape[0], -(-(N_max + 2 - T) // p) + 1  # block levels from T on
    levels = np.empty((T + count * p, m))
    levels[:T], levels[T : T + p] = tail.head, tail.x0.reshape(p, m)
    xs = levels[T:].reshape(count, M)
    for row, next_row in zip(xs, xs[1:]):
        row.dot(tail.R, out=next_row)
    past = xs[-1] @ (tail.R @ np.linalg.solve(np.eye(M) - tail.R, np.ones(M)))  # on block levels past the listing
    above = np.cumsum(np.r_[past, levels[:T:-1].sum(axis=1)])[::-1]  # above[n - T]: the mass above level n
    first = model.tail_start + p
    if not (hits := np.flatnonzero(above[first - T : -1] < tol)).size:
        raise ValueError(f"the listing to tol = {tol} finds no level below tol by N = {len(levels) - 2}")
    N = first + int(hits[0])
    return levels[: N + 2], float(above[N - T]), N


def exact_solve(model: JointModel) -> GeometricTail:
    """Exact stationary vector of the infinite chain as a `GeometricTail`, listing no level.  Raises NotErgodic
    as `_ergodic_marginal` does, and SingularSolve where a solve is singular, as on a reducible tail."""
    return _exact_tail(model, *_blocks(model))


def _ergodic_marginal(model: JointModel, blocks=None) -> QueueMarginal:
    """The isolated queue's marginal; NotErgodic, with the text of the verdict that refuses, unless a state is
    working, its tail ratio is below 1 and the chain has one closed class (`reachability` of `blocks`)."""
    if (marginal := queue_marginal(model)).verdict:
        raise NotErgodic(marginal.verdict[1])
    if (reach := reachability(model, blocks)) and reach[0] == "SeveralClosedClasses":
        raise NotErgodic(reach[1])
    return marginal


def autonomous_environment(model: JointModel, B, U, D) -> np.ndarray | None:
    """theta_env, the stationary law of the environment where it is a Markov
    chain on its own, else None; NotErgodic where `exact_solve` raises it.
    At level n the environment moves by the off-diagonal part of B_n + U_n +
    D_n; where that part is the same, bit for bit, at every representative
    level and one strong component, the queue does not steer the environment,
    so P(W) = theta_env(W) and TH = theta_env(W) TH_iso (`isolated_throughput`)."""
    _ergodic_marginal(model, (B, U, D))
    moves = B + U + D
    diag = np.arange(model.n_env)
    moves[:, diag, diag] = 0.0
    if not ((moves == moves[0]).all() and _one_component(moves[0])):
        return None
    return gth_stationary(moves[0])


def isolated_throughput(model: JointModel) -> float:
    """TH_iso = sum_n xi(n) mu(n), the isolated queue's throughput, in closed
    form: the levels below T0 = tail_start + 1 one by one, then per tail
    position i the levels T0 + i + j p, j >= 0, which hold xi(T0 + i) / (1 - r)."""
    marginal = _ergodic_marginal(model)
    xi = marginal.weights / marginal.C
    xi[model.tail_start + 1 :] /= marginal.gap
    _, mu = _level_rates(model, np.arange(len(xi)))
    return float((xi[1:] * mu[1:]).sum())


def _exact_tail(model: JointModel, B, U, D) -> GeometricTail:
    """`exact_solve` from the representative levels' blocks B, U, D."""
    marginal = _ergodic_marginal(model, (B, U, D))
    T0, p, m = model.tail_start + 1, model.period, model.n_env
    A0, A1, A2 = _tail_qbd(model, B, U, D)
    A = A0 + A1 + A2
    try:
        # A may have several closed classes where the chain has one: S and S1 below would then be undetermined
        if (closed := len(_closed_classes(A))) > 1:
            raise SingularSolve(f"the tail's phases fall into {closed} closed classes")
        G = _log_reduction(A0, A1, A2)
        C = A1 + A0 @ G  # block level 0 of the chain censored to block levels <= 0
        R = np.linalg.solve(-C.T, A0.T).T
        # the boundary levels 0..T0-1, then block level 0 as one larger top level
        boundary = _boundary_levels(model, B, U, D, C)
        U_top = boundary[1][-1]
        levels = _solve_elimination(*boundary)
        head, x0 = np.array(levels[:-1]), levels[-1]
        # S = sum_j x_j and S1 = sum_j j x_j solve S A = x0 A2 - pi_{T0-1} U_top and S1 A = S (A2 - A0) - x0 A2.
        # A's redundant equation, that of the working state with the most mass in x0, gives way to the tail's
        # working mass: that of level n is P(W) xi(n), with P(W) read off the head
        w, mask = marginal.weights, np.tile(model.env.working_mask(), p)
        tail_working = head[:, mask[:m]].sum() / w[:T0].sum() * w[T0:].sum() / marginal.gap
        A, col = A.T, int(np.argmax(x0 * mask))
        A[col] = mask
        rhs = x0 @ A2 - head[-1] @ U_top
        rhs[col] = tail_working
        S = np.linalg.solve(A, rhs)
        rhs = S @ (A2 - A0) - x0 @ A2
        rhs[col] = tail_working * marginal.tail_ratio / marginal.gap
        S1 = np.linalg.solve(A, rhs)
        total = head.sum() + S.sum()
    except (np.linalg.LinAlgError, SingularSolve) as exc:
        # GTH also raises SingularSolve where the chain censored to level 0 is reducible
        at = "exact solve: " if isinstance(exc, np.linalg.LinAlgError) else ""
        raise SingularSolve(f"{at}{exc}") from exc
    if not (np.isfinite(R).all() and np.isfinite(total) and total > 0.0):
        raise SingularSolve("exact solve produced non-finite or zero mass")
    return GeometricTail(start=T0, period=p, head=head / total, x0=x0 / total, R=R, S=S / total, S1=S1 / total,
                         R_residual=float(np.linalg.norm(A0 + R @ (A1 + R @ A2), np.inf)), marginal=marginal)


def check_tol(tol: float) -> float:
    """tol, refused unless it is positive: no level has mass below 0 above it."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    return tol


def auto_truncate(model: JointModel, tol: float = 1e-9) -> TruncatedSolution:
    """The stationary vector listed on levels 0..N, N >= tail_start + period
    the first level whose mass above it is below tol; the metrics do not
    depend on N.  A separable model whose joint chain `reachability` finds
    irreducible is answered from `product_form`, any other from
    `exact_solve`; both are read from one set of level blocks."""
    check_tol(tol)
    blocks = _blocks(model)
    tail = product_form(model, blocks)
    if tail.separable and tail.irreducible:
        # xi's mass above is the stationary mass above: c = 1
        N, mass_above = _listing_level(model, tail.marginal, 1.0, tol)
        listing = np.outer(tail.marginal.xi(np.arange(N + 2)), tail.theta)
    else:
        tail = _exact_tail(model, *blocks)
        listing, mass_above, N = _list_levels(model, tail, blocks, tol)
    residual, _ = _balance_residual(listing, *blocks, _level_classes(model, np.arange(N + 2)), N + 1)
    pi = listing[: N + 1]
    pi /= pi.sum()  # in place: a copy would hold the listing twice
    return TruncatedSolution(N=N, pi=pi, residual=residual, truncation_estimate=mass_above, tail=tail)


@dataclass(frozen=True)
class Metrics:
    throughput: float  # departures per unit time
    mean_queue_length: float
    blocked_probability: float
    loss_rate: float  # arrival rate seen while the server is blocked


def _level_rates(model: JointModel, levels: np.ndarray):
    """lambda(n) and mu(n) for each n in `levels`, read from the representative
    levels: both rates repeat with period p from T0 = tail_start + 1 on."""
    reps = _representatives(model)
    cls = _level_classes(model, levels)
    return np.array([model.arrival(n) for n in reps])[cls], np.array([model.service(n) for n in reps])[cls]


def metrics(result, model: JointModel) -> Metrics:
    """Stationary metrics of any result with `level_sums()`: a `GeometricTail`,
    a `TruncatedSolution` or a `ProductFormResult`."""
    working = model.env.working_mask()
    levels, pi, extra = result.level_sums()
    lam, mu = _level_rates(model, levels)
    th = float((pi[1:, working].sum(axis=1) * mu[1:]).sum())
    mean_q = float((pi.sum(axis=1) * levels).sum()) + extra
    p_blocked = float(pi[:, ~working].sum())
    loss = float((pi[:, ~working].sum(axis=1) * lam).sum())
    return Metrics(
        throughput=th,
        mean_queue_length=mean_q,
        blocked_probability=p_blocked,
        loss_rate=loss,
    )


@dataclass(frozen=True)
class CutReport:
    """Deviation from the level-cut identity
    sum_W pi(n,.) * lambda(n) = sum_W pi(n+1,.) * mu(n+1) on interior levels."""

    passed: bool
    worst_relative: float
    worst_level: int
    levels_checked: int


def check_cut_structure(solution: TruncatedSolution, model: JointModel) -> CutReport:
    working = model.env.working_mask()
    interior = solution.N - max(solution.N // 10, 1)
    if interior <= 0:
        return CutReport(passed=True, worst_relative=0.0, worst_level=0, levels_checked=max(interior, 0))
    flow = solution.pi[: interior + 1, working].sum(axis=1)
    lam, mu = _level_rates(model, np.arange(interior + 1))
    lhs = flow[:-1] * lam[:-1]
    rhs = flow[1:] * mu[1:]
    rel = np.abs(lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1e-300)
    worst_n = int(np.argmax(rel))
    worst = float(rel[worst_n])
    return CutReport(passed=worst <= CUT_TOL, worst_relative=worst, worst_level=worst_n, levels_checked=interior)


def export_csv(solution: TruncatedSolution, model: JointModel, path) -> int:
    """Write the stationary vector as CSV with columns (n, k, pi), a window of
    `LEVEL_WINDOW` levels at a time, so that one window's text is held at once.
    A label that holds `,`, `"`, CR or LF is quoted with its quotes doubled, as
    `csv.writer` quotes it.  The values are printed as `'%.17g' % v` would
    print them, by `format17.write_g17`; returns how many of them it left to
    that template.

    Each row of a window is laid out in whole 8-byte words, padded with
    `format17.PAD`: the level n right-aligned, `,label,`, then the value, and
    the padding is dropped once per window."""
    m = model.n_env
    labels = [str(label) for label in model.env.labels]
    labels = ['"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s for s in labels]
    pi = solution.pi
    width = len(str(len(pi) - 1))  # digits of the last level
    fields = [bytes([PAD]) * width + b"," + label.encode() + b"," for label in labels]
    words = -(-max(map(len, fields)) // 8)
    label_words = pad_words(fields, 8 * words).reshape(m, words)
    place = 10 ** np.arange(width - 1, -1, -1)
    buf = np.empty((min(LEVEL_WINDOW, len(pi)), m, words + WORDS), np.uint64)
    templated = 0
    with open(path, "wb") as fh:
        fh.write(b"n,k,pi\n")
        for start in range(0, len(pi), LEVEL_WINDOW):
            stop = min(start + LEVEL_WINDOW, len(pi))
            window = buf[: stop - start]
            digits = np.arange(start, stop)[:, None] // place
            level_text = np.full((stop - start, 8 * words), PAD, np.uint8)
            level_text[:, :width] = np.where((digits > 0) | (place == 1), digits % 10 + ord("0"), PAD)
            np.bitwise_and(level_text.view(np.uint64)[:, None, :], label_words, out=window[:, :, :words])
            templated += write_g17(pi[start:stop].ravel(), window.reshape(-1, words + WORDS)[:, words:])
            text = window.view(np.uint8).ravel()
            fh.write(text[text != PAD])
    return templated
