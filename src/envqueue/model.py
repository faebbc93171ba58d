"""Model declarations for an exponential queue coupled to a finite random environment.

A model couples a birth-death queue on the nonnegative integers with a finite
environment state space K partitioned into working states (arrivals admitted,
service runs) and blocked states (queue frozen).  Environment dynamics are
queue-length dependent: a generator matrix ``V_n`` drives continuous
environment moves while the queue length is n, and a stochastic matrix ``R_n``
drives the instantaneous environment jump triggered by a service completion at
queue length n.

All queue-length dependence follows a "finite prefix + eventually periodic
tail" discipline so that every "for all n" condition becomes decidable by
finitely many checks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class EnvqueueError(Exception):
    """Base class for the errors the library raises."""


class ModelError(EnvqueueError):
    """Base class for model construction/validation errors."""


class InvalidParam(ModelError):
    pass


class MalformedMatrix(ModelError):
    pass


def _as_rate_tuple(values, name):
    try:
        values = tuple(values)
        out = tuple(float(v) for v in values)
    except TypeError as exc:
        raise InvalidParam(f"{name} must contain numbers: {exc}") from None
    for value, v in zip(values, out):
        if isinstance(value, (bool, np.bool_)):  # YAML's yes/no/on/off, JSON's true/false; float(True) is 1.0
            raise InvalidParam(f"{name} must contain numbers, got {value}")
        if not (v > 0.0) or not math.isfinite(v):
            raise InvalidParam(f"{name} must contain positive finite rates, got {v}")
    return out


def _freeze(mat, labels, name):
    """`mat` as a read-only |K| x |K| array, checked to be a generator, or a
    stochastic matrix where `name` is an R's.  A row may miss its sum, 0 or 1,
    by round-off: 1e-12 of a generator row's absolute sum, 1e-12 for an R."""
    m = len(labels)
    a = np.array(mat, dtype=float)
    if a.shape != (m, m):
        raise MalformedMatrix(f"{name} has shape {a.shape}, expected {(m, m)}")
    stochastic = name.startswith("R")
    with np.errstate(all="ignore"):  # non-finite entries and sums are reported, not warned about
        off = a if stochastic else a - np.diag(np.diag(a))  # a generator's diagonal is minus its exit rates
        sums, target = a.sum(axis=1), int(stochastic)
        # halved, the absolute sum of a conservative row of finite rates is finite
        tol = 1e-12 if stochastic else 2e-12 * np.abs(a / 2).sum(axis=1)
        for bad, defect in ((~np.isfinite(a).all(axis=1), "has a non-finite entry"),
                            ((off < 0).any(axis=1), f"has a negative {'probability' if stochastic else 'rate'}"),
                            (~(np.abs(sums - target) <= tol) | np.isinf(tol), f"sums to {{:.12g}}, not {target}")):
            if bad.any():
                k = int(np.argmax(bad))
                raise MalformedMatrix(f"{name} row {labels[k]} " + defect.format(float(sums[k])))
    a.setflags(write=False)
    return a


def _periodic(prefix, tail, i):
    """Entry i of a finite prefix followed by a periodic tail: prefix[i], or
    tail[(i - len(prefix)) % len(tail)] past the prefix."""
    if i < 0:
        raise IndexError(f"position {i} is negative")
    return prefix[i] if i < len(prefix) else tail[(i - len(prefix)) % len(tail)]


@dataclass(frozen=True, eq=False)
class RateFamily:
    """Queue-indexed arrival/service rates with eventually periodic tail.

    ``lambda_prefix[i]`` is the arrival rate at queue length i (i < N0) and
    ``mu_prefix[i]`` is the service rate at queue length i+1, so that the
    prefix covers the pairs (lambda(n), mu(n+1)) for n < N0.  Beyond the
    prefix the rates repeat with period p.  mu(0) = 0 by construction.
    """

    lambda_prefix: tuple = ()
    mu_prefix: tuple = ()
    lambda_tail: tuple = (1.0,)
    mu_tail: tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "lambda_prefix", _as_rate_tuple(self.lambda_prefix, "lambda_prefix"))
        object.__setattr__(self, "mu_prefix", _as_rate_tuple(self.mu_prefix, "mu_prefix"))
        object.__setattr__(self, "lambda_tail", _as_rate_tuple(self.lambda_tail, "lambda_tail"))
        object.__setattr__(self, "mu_tail", _as_rate_tuple(self.mu_tail, "mu_tail"))
        if len(self.lambda_prefix) != len(self.mu_prefix):
            raise InvalidParam("lambda_prefix and mu_prefix must have equal length")
        if len(self.lambda_tail) != len(self.mu_tail):
            raise InvalidParam("lambda_tail and mu_tail must have equal length")
        if not self.lambda_tail:
            raise InvalidParam("tail must have period >= 1")

    @classmethod
    def constant(cls, lam, mu):
        return cls(lambda_tail=(float(lam),), mu_tail=(float(mu),))

    @property
    def tail_start(self) -> int:
        return len(self.lambda_prefix)

    @property
    def period(self) -> int:
        return len(self.lambda_tail)

    def arrival(self, n: int) -> float:
        """lambda(n), n >= 0."""
        return _periodic(self.lambda_prefix, self.lambda_tail, n)

    def service(self, n: int) -> float:
        """mu(n); mu(0) = 0."""
        return 0.0 if n == 0 else _periodic(self.mu_prefix, self.mu_tail, n - 1)


@dataclass(frozen=True, eq=False)
class EnvironmentSpec:
    """Finite environment with queue-length dependent dynamics.

    ``V_prefix[i]`` is the continuous-move generator at queue length i
    (i < N0) and ``R_prefix[i]`` the jump matrix triggered by a service
    completion at queue length i+1, mirroring the rate-family prefix
    alignment.  Tails repeat with the same period.
    """

    labels: tuple
    blocked: frozenset
    V_prefix: tuple = ()
    R_prefix: tuple = ()
    V_tail: tuple = ()
    R_tail: tuple = ()

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise InvalidParam("environment needs at least one state")
        try:
            distinct, blocked = len(set(labels)) == len(labels), frozenset(self.blocked)
        except TypeError as exc:
            raise InvalidParam(f"environment labels and blocked states must be hashable: {exc}") from None
        if not distinct:
            raise InvalidParam("environment labels must be distinct")
        if not blocked <= set(labels):
            raise InvalidParam("blocked set must be a subset of the labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocked", blocked)
        for name in ("V_prefix", "R_prefix", "V_tail", "R_tail"):
            mats = tuple(_freeze(a, labels, f"{name}[{i}]") for i, a in enumerate(getattr(self, name)))
            object.__setattr__(self, name, mats)
        if len(self.V_prefix) != len(self.R_prefix):
            raise InvalidParam("V_prefix and R_prefix must have equal length")
        if len(self.V_tail) != len(self.R_tail) or not self.V_tail:
            raise InvalidParam("V_tail and R_tail must have equal positive length")

    @classmethod
    def constant(cls, labels, blocked, V, R):
        return cls(labels=labels, blocked=blocked, V_tail=(V,), R_tail=(R,))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def tail_start(self) -> int:
        return len(self.V_prefix)

    @property
    def period(self) -> int:
        return len(self.V_tail)

    def working_mask(self) -> np.ndarray:
        mask = np.array([k not in self.blocked for k in self.labels], dtype=bool)
        mask.setflags(write=False)
        return mask

    def V(self, n: int) -> np.ndarray:
        """Continuous-move generator at queue length n >= 0."""
        return _periodic(self.V_prefix, self.V_tail, n)

    def R(self, n: int) -> np.ndarray:
        """Service-completion jump matrix at queue length n >= 1."""
        return _periodic(self.R_prefix, self.R_tail, n - 1)


@dataclass(frozen=True, eq=False)
class JointModel:
    """Queue + environment with the merged tail discipline.

    States are pairs (n, k) with n the queue length and k an index into the
    ordered environment labels.
    """

    rates: RateFamily
    env: EnvironmentSpec
    name: str = ""

    def __post_init__(self):
        # finite rates can still sum past the largest float; with V conservative and
        # R stochastic, a state's exit rate is its arrival and service rates less V[k, k]
        working = self.env.working_mask()
        for n in range(self.tail_start + 1 + self.period):  # levels with every block the chain has
            with np.errstate(over="ignore"):
                ok = np.isfinite(np.where(working, self.arrival(n) + self.service(n), 0.0) - np.diag(self.V(n)))
            if not ok.all():
                raise InvalidParam(f"the total exit rate of state ({n}, {self.env.labels[np.argmin(ok)]}) overflows")

    @property
    def tail_start(self) -> int:
        """First level of the merged periodic tail (N0*)."""
        return max(self.rates.tail_start, self.env.tail_start)

    @property
    def period(self) -> int:
        """Merged tail period (p*)."""
        return math.lcm(self.rates.period, self.env.period)

    @property
    def n_env(self) -> int:
        return self.env.size

    def blocked_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.env.working_mask())

    def working_indices(self) -> np.ndarray:
        return np.flatnonzero(self.env.working_mask())

    def arrival(self, n):
        return self.rates.arrival(n)

    def service(self, n):
        return self.rates.service(n)

    def V(self, n):
        return self.env.V(n)

    def R(self, n):
        return self.env.R(n)

    def representative_levels(self) -> range:
        """Levels {0, ..., N0*+p*-1}; by periodicity they cover all n."""
        return range(self.tail_start + self.period)

    def signature(self) -> str:
        """Canonical text rendering, used for run-manifest hashing.  A matrix is
        rendered by its shape and the SHA-256 of its little-endian float64
        entries, so every entry counts at any size."""
        parts = [
            f"name={self.name}",
            f"lambda_prefix={self.rates.lambda_prefix}",
            f"mu_prefix={self.rates.mu_prefix}",
            f"lambda_tail={self.rates.lambda_tail}",
            f"mu_tail={self.rates.mu_tail}",
            f"labels={self.env.labels}",
            f"blocked={sorted(self.env.blocked, key=str)}",
        ]
        for tag, mats in (
            ("V_prefix", self.env.V_prefix),
            ("R_prefix", self.env.R_prefix),
            ("V_tail", self.env.V_tail),
            ("R_tail", self.env.R_tail),
        ):
            for i, mat in enumerate(mats):
                digest = hashlib.sha256(np.ascontiguousarray(mat, dtype="<f8").tobytes()).hexdigest()
                parts.append(f"{tag}[{i}]=shape{mat.shape} sha256:{digest}")
        return "\n".join(parts)


# -- level blocks: with states indexed level-major (level = queue length) the
# joint generator is block tridiagonal with blocks B_n (local), U_n (up), D_n
# (down) (Gaver, Jacobs & Latouche, Adv. Appl. Prob. 16, 1984).  The model's
# rates are read once, into padded sparse rows (`LevelMoves`), whose cost
# follows the nonzero moves; the dense blocks, which feed the linear algebra,
# are placed from those rows.


# a pass over the listed levels takes this many at a time, so that its
# temporaries do not grow with the number of levels
LEVEL_WINDOW = 2048


def _representatives(model: JointModel) -> range:
    """Levels 0..T0+p-1, T0 = tail_start + 1: every level has the blocks and
    moves of one of them (`_level_classes`)."""
    return range(model.tail_start + 1 + model.period)


def _level_classes(model: JointModel, levels: np.ndarray) -> np.ndarray:
    """Index of the representative level whose blocks level n has: n itself
    below T0 = tail_start + 1, T0 + (n - T0) mod p from there on."""
    T0 = model.tail_start + 1
    return np.where(levels < T0, levels, T0 + (levels - T0) % model.period)


def _capped_classes(model: JointModel, N: int) -> np.ndarray:
    """`_level_classes` of levels 0..N, where the capped level N has the index
    after the representatives', as `_blocks(..., cap=N)` and
    `_level_moves(..., cap=N)` list it."""
    cls = _level_classes(model, np.arange(N + 1))
    cls[N] = len(_representatives(model))
    return cls


def _slice(levels: range, shift: int = 0) -> slice:
    """The levels `levels` + `shift` as a slice, which reads a view."""
    return slice(levels.start + shift, levels.stop + shift, levels.step)


def _balance_residual(pi, B, U, D, cls, rows: int) -> tuple[float, int]:
    """max |pi_{n-1} U_{n-1} + pi_n B_n + pi_{n+1} D_{n+1}| over levels n < rows,
    and the first level where it is reached; level n has blocks B[cls[n]],
    U[cls[n]], D[cls[n]].  pi (and cls) may hold one level more than `rows`,
    which feeds the last row's down flow.  Levels are checked LEVEL_WINDOW at a
    time, so the temporaries stay small however many levels there are.  The
    levels of a class in a window are reached by a slice: as `_level_classes`
    and `_capped_classes` give them, they are one level or every p-th one."""
    worst = []  # per window: the largest defect and its first level
    for start in range(0, rows, LEVEL_WINDOW):
        stop = min(start + LEVEL_WINDOW, rows)
        # the window's levels and their neighbours, whose flows enter the window
        lo, hi = max(start - 1, 0), min(stop + 1, len(pi))
        window, window_cls = pi[lo:hi], cls[lo:hi]
        flow = np.zeros_like(window)
        for c in range(len(B)):
            idx = np.flatnonzero(window_cls == c)
            if not idx.size:
                continue
            here = range(int(idx[0]), int(idx[-1]) + 1, int(idx[1] - idx[0]) if idx.size > 1 else 1)
            up = here[: len(here) - (here[-1] == hi - lo - 1)]  # levels whose next is in the window
            down = here[here[0] == 0 :]  # levels whose previous is in the window, from 1 on
            flow[_slice(here)] += window[_slice(here)] @ B[c]
            flow[_slice(up, 1)] += window[_slice(up)] @ U[c]
            flow[_slice(down, -1)] += window[_slice(down)] @ D[c]
        defect = np.abs(flow[start - lo : stop - lo]).max(axis=1)
        at = int(np.argmax(defect))
        worst.append((float(defect[at]), start + at))
    return worst[int(np.argmax([value for value, _ in worst]))]


class LevelMoves(NamedTuple):
    """The moves out of the states of some levels as padded sparse
    ("ELLPACK") rows (Saad, Iterative Methods for Sparse Linear Systems,
    2003).  Row [i, k] lists the nonzero moves out of state k of the i-th
    level in `generator_row` order -- the arrival, then service completions
    and environment moves by ascending target -- as `shift`, the target's
    flat index n'|K| + k' less the first index n|K| of the level, and `rate`,
    then padding up to the common width: zero rates that stay at (n, k).
    These are the nonzero entries of the rows of [U | D | off-diagonal B]."""

    shift: np.ndarray  # shape (levels, |K|, width): |K| + k' arrival, k' - |K| service completion, k' environment move
    rate: np.ndarray


def _level_moves(model: JointModel, levels, cap: int | None = None, env=None) -> LevelMoves:
    """The `LevelMoves` of each level in `levels`, then of level `cap` without
    its arrivals if one is given; with `env`, a list of environment states,
    only their rows, in that order.  The one reader of the model's rates: the
    dense blocks of `_blocks` are placed from these rows."""
    ns = [*levels, *([] if cap is None else [cap])]
    m = model.n_env
    states = np.arange(m) if env is None else np.asarray(env)
    s = states.size
    at = np.flatnonzero(model.env.working_mask()[states])  # rows of the working states
    w = states[at]
    parts = []  # (row, shift, rate) per level: arrivals, service completions, environment moves
    for i, n in enumerate(ns):
        if i < len(levels):
            parts.append((i * s + at, m + w, np.full(w.size, model.arrival(n))))
        if n > 0:
            D = model.service(n) * model.R(n)[w]  # the working rows; a product may underflow to zero
            k, j = np.divmod(np.flatnonzero(D), m)
            parts.append((i * s + at[k], j - m, D[k, j]))
        V = model.V(n)[states]
        k, j = np.divmod(np.flatnonzero(V), m)
        off = states[k] != j
        parts.append((i * s + k[off], j[off], V[k[off], j[off]]))
    row, shift, rate = map(np.concatenate, zip(*parts))
    # np.flatnonzero lists each part row-major, so a stable sort by row puts each
    # row's moves in `generator_row` order
    order = np.argsort(row, kind="stable")
    row = row[order]
    size = len(ns) * s
    counts = np.bincount(row, minlength=size)
    width = max(int(counts.max()), 1)
    rank = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out = (np.repeat(np.tile(states, len(ns))[:, None], width, axis=1), np.zeros((size, width)))
    for padded, values in zip(out, (shift, rate)):
        padded[row, rank] = values[order]
    return LevelMoves(*(a.reshape(len(ns), s, width) for a in out))


def _blocks(model: JointModel, cap: int | None = None):
    """Local (B), up (U) and down (D) blocks of the representative levels,
    stacked, then of level `cap` without its arrivals if one is given: the
    levels of `_level_moves(model, _representatives(model), cap)`, whose rows
    they are placed from.  Each move's rate goes to its target in the block of
    its queue step; padding, a zero rate that stays at the state, lands on B's
    diagonal, which then takes the conservative value."""
    moves = _level_moves(model, _representatives(model), cap)
    levels, m, _ = moves.rate.shape
    step, target = np.divmod(moves.shift, m)
    blocks = np.zeros((3, levels, m, m))
    # step % 3 is 0 for an environment move, 1 for an arrival, 2 for a service completion
    blocks[step % 3, np.arange(levels)[:, None, None], np.arange(m)[:, None], target] = moves.rate
    B, U, D = blocks
    diag = np.arange(m)
    B[:, diag, diag] -= U.sum(axis=2) + D.sum(axis=2) + B.sum(axis=2)
    return B, U, D


def _tail_qbd(model: JointModel, B, U, D):
    """A0 (up), A1 (local), A2 (down) of the tail grouped into block levels
    of p consecutive levels, starting at T0 = tail_start + 1."""
    T0, p, m = model.tail_start + 1, model.period, model.n_env
    A0, A1, A2 = (np.zeros((p * m, p * m)) for _ in range(3))
    for i in range(p):
        here = slice(i * m, (i + 1) * m)
        A1[here, here] = B[T0 + i]
        if i + 1 < p:
            A1[here, (i + 1) * m : (i + 2) * m] = U[T0 + i]
        else:
            A0[here, :m] = U[T0 + i]
        if i > 0:
            A1[here, (i - 1) * m : i * m] = D[T0 + i]
        else:
            A2[here, (p - 1) * m :] = D[T0 + i]
    return A0, A1, A2


def _boundary_levels(model: JointModel, B, U, D, top):
    """The local, up and down blocks of levels 0..T0-1, then of block level 0 as one larger top level with local
    block `top`: the chain censored to block levels <= 0 where `top` is A1 + A0 G."""
    T0, m = model.tail_start + 1, model.n_env
    U_top, D_top = np.zeros((m, len(top))), np.zeros((len(top), m))
    U_top[:, :m], D_top[:m] = U[T0 - 1], D[T0]
    return [*B[:T0], top], [*U[: T0 - 1], U_top], [*D[:T0], D_top]


class GeneratorRow(NamedTuple):
    """One row of the joint generator: off-diagonal targets and the diagonal."""

    state: tuple
    transitions: tuple  # ((n', k'), rate), rate > 0
    diagonal: float

    def total_rate(self) -> float:
        return -self.diagonal


def generator_row(model: JointModel, state) -> GeneratorRow:
    """Generator row at state (n, k), read from the `LevelMoves` of row k of
    level n alone: arrival, then service completions and environment moves by
    ascending target; k is a label index."""
    n, k = state
    m = model.n_env
    if n < 0 or not (0 <= k < m):
        raise IndexError(f"state {state} outside the state space")
    moves = _level_moves(model, [n], env=[k])
    count = np.count_nonzero(moves.rate[0, 0])
    shift, rate = (a[0, 0, :count].tolist() for a in (moves.shift, moves.rate))
    out = tuple(((n + s // m, s % m), r) for s, r in zip(shift, rate))
    return GeneratorRow(state=(n, k), transitions=out, diagonal=-sum(r for _, r in out))


def _strong_components(src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
    """Strong-component label of each of `size` nodes of the digraph with
    edges src[i] -> dst[i], by an iterative Tarjan search (SIAM J. Comput. 1,
    1972).  Roots are taken in index order, successors by descending index,
    and components are labelled 0, 1, ... in the order they close: the
    labelling of scipy's `connected_components(connection="strong")`."""
    order = np.lexsort((-dst, src))
    succ = dst[order].tolist()
    ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=size)))).tolist()
    index = [-1] * size  # visit order; -1 unvisited
    low = [0] * size
    label = [-1] * size  # -1 while the node is on the Tarjan stack or unvisited
    stack, work = [], []
    visited = n_comp = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work.append([root, ptr[root]])
        while work:
            frame = work[-1]
            v, pos = frame
            end = ptr[v + 1]
            while pos < end:
                w = succ[pos]
                pos += 1
                if index[w] < 0:
                    frame[1] = pos
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append([w, ptr[w]])
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return np.array(label, dtype=np.intp)


def _level_graph(B, U, D):
    """Each state's strong-component label, the levels' states concatenated, and whether each component is closed
    (no edge leaves it), of the level graph with local blocks B[n], up blocks U[n] (n < L) and down blocks D[n]
    (n > 0), L = len(B) - 1, and an edge per nonzero entry; the top level may be larger than the others."""
    L = len(B) - 1
    first = np.cumsum([0, *map(len, B)])
    moves = [(B[n], n, n) for n in range(L + 1)] + [(U[n], n, n + 1) for n in range(L)]
    moves += [(D[n], n, n - 1) for n in range(1, L + 1)]
    edges = [(first[n] + i, first[to] + j) for block, n, to in moves for i, j in [np.nonzero(block)]]
    src, dst = map(np.concatenate, zip(*edges))
    comp = _strong_components(src, dst, int(first[-1]))
    leaving = comp[src] != comp[dst]
    return comp, np.bincount(comp[src[leaving]], minlength=int(comp.max()) + 1) == 0


def _example(model: JointModel, comp: np.ndarray, among) -> list:
    """The first ten states, as (level, label), of the smallest component in `among`, the one holding the lowest
    state among equals; state i of `comp` is (i // |K|, label i % |K|)."""
    labels, lowest, sizes = np.unique(comp, return_index=True, return_counts=True)
    keep = np.isin(labels, among)
    c = labels[keep][np.lexsort((lowest[keep], sizes[keep]))[0]]
    m = model.n_env
    return [(i // m, model.env.labels[i % m]) for i in np.flatnonzero(comp == c)[:10].tolist()]
