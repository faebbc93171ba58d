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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph, csr_matrix


class EnvqueueError(Exception):
    """Base class for the errors the library raises."""


class ModelError(EnvqueueError):
    """Base class for model construction/validation errors."""


class InvalidParam(ModelError):
    pass


class MalformedMatrix(ModelError):
    pass


def _as_rate_tuple(values, name):
    out = tuple(float(v) for v in values)
    for v in out:
        if not (v > 0.0) or not math.isfinite(v):
            raise InvalidParam(f"{name} must contain positive finite rates, got {v}")
    return out


def _freeze(mat, size, name):
    a = np.asarray(mat, dtype=float)
    if a.shape != (size, size):
        raise MalformedMatrix(f"{name} has shape {a.shape}, expected {(size, size)}")
    a = a.copy()
    a.setflags(write=False)
    return a


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
        if n < 0:
            raise IndexError("queue length must be nonnegative")
        if n < self.tail_start:
            return self.lambda_prefix[n]
        return self.lambda_tail[(n - self.tail_start) % self.period]

    def service(self, n: int) -> float:
        """mu(n); mu(0) = 0."""
        if n == 0:
            return 0.0
        if n < 0:
            raise IndexError("queue length must be nonnegative")
        if n - 1 < self.tail_start:
            return self.mu_prefix[n - 1]
        return self.mu_tail[(n - 1 - self.tail_start) % self.period]


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
        if len(set(labels)) != len(labels):
            raise InvalidParam("environment labels must be distinct")
        blocked = frozenset(self.blocked)
        if not blocked <= set(labels):
            raise InvalidParam("blocked set must be a subset of the labels")
        m = len(labels)
        V_prefix = tuple(_freeze(v, m, f"V_prefix[{i}]") for i, v in enumerate(self.V_prefix))
        R_prefix = tuple(_freeze(r, m, f"R_prefix[{i}]") for i, r in enumerate(self.R_prefix))
        V_tail = tuple(_freeze(v, m, f"V_tail[{i}]") for i, v in enumerate(self.V_tail))
        R_tail = tuple(_freeze(r, m, f"R_tail[{i}]") for i, r in enumerate(self.R_tail))
        if len(V_prefix) != len(R_prefix):
            raise InvalidParam("V_prefix and R_prefix must have equal length")
        if len(V_tail) != len(R_tail) or not V_tail:
            raise InvalidParam("V_tail and R_tail must have equal positive length")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocked", blocked)
        object.__setattr__(self, "V_prefix", V_prefix)
        object.__setattr__(self, "R_prefix", R_prefix)
        object.__setattr__(self, "V_tail", V_tail)
        object.__setattr__(self, "R_tail", R_tail)

    @classmethod
    def constant(cls, labels, blocked, V, R):
        return cls(labels=tuple(labels), blocked=frozenset(blocked), V_tail=(V,), R_tail=(R,))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def tail_start(self) -> int:
        return len(self.V_prefix)

    @property
    def period(self) -> int:
        return len(self.V_tail)

    @property
    def working(self) -> tuple:
        return tuple(k for k in self.labels if k not in self.blocked)

    def working_mask(self) -> np.ndarray:
        mask = np.array([k not in self.blocked for k in self.labels], dtype=bool)
        mask.setflags(write=False)
        return mask

    def V(self, n: int) -> np.ndarray:
        """Continuous-move generator at queue length n >= 0."""
        if n < 0:
            raise IndexError("queue length must be nonnegative")
        if n < self.tail_start:
            return self.V_prefix[n]
        return self.V_tail[(n - self.tail_start) % self.period]

    def R(self, n: int) -> np.ndarray:
        """Service-completion jump matrix at queue length n >= 1."""
        if n < 1:
            raise IndexError("R_n is defined for n >= 1")
        if n - 1 < self.tail_start:
            return self.R_prefix[n - 1]
        return self.R_tail[(n - 1 - self.tail_start) % self.period]


@dataclass(frozen=True, eq=False)
class JointModel:
    """Queue + environment with the merged tail discipline.

    States are pairs (n, k) with n the queue length and k an index into the
    ordered environment labels.
    """

    rates: RateFamily
    env: EnvironmentSpec
    name: str = ""

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
        """Canonical text rendering, used for run-manifest hashing."""
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
                parts.append(f"{tag}[{i}]={np.array2string(mat, precision=17)}")
        return "\n".join(parts)


@dataclass(frozen=True)
class GeneratorRow:
    """One row of the joint generator: off-diagonal targets and the diagonal."""

    state: tuple
    transitions: tuple  # ((n', k'), rate), rate > 0
    diagonal: float

    def total_rate(self) -> float:
        return -self.diagonal


def generator_row(model: JointModel, state) -> GeneratorRow:
    """Generator row at state (n, k): arrival, service-completion and
    environment moves with the model's rates; k is a label index."""
    n, k = state
    if n < 0 or not (0 <= k < model.n_env):
        raise IndexError(f"state {state} outside the state space")
    working = model.env.working_mask()
    out = []
    if working[k]:
        out.append(((n + 1, k), model.arrival(n)))
        if n > 0:
            mu = model.service(n)
            row = model.R(n)[k]
            for ell in np.flatnonzero(row):
                out.append(((n - 1, int(ell)), mu * row[ell]))
    vrow = model.V(n)[k]
    for ell in range(model.n_env):
        if ell != k and vrow[ell] != 0.0:
            out.append(((n, ell), float(vrow[ell])))
    total = sum(r for _, r in out)
    return GeneratorRow(state=(n, k), transitions=tuple(out), diagonal=-total)


@dataclass
class ValidationReport:
    """Outcome of structural validation on the truncated state graph."""

    n_check: int
    violations: list = field(default_factory=list)  # (kind, where, detail)
    warnings: list = field(default_factory=list)
    passed: bool = False

    def kinds(self):
        return {kind for kind, _, _ in self.violations}


_CONSERVATIVE_TOL = 1e-12


def validate_model(model: JointModel, n_check: int) -> ValidationReport:
    """Check matrix well-formedness for all n <= n_check and strong
    connectivity of the state graph restricted to {0..n_check} x K.

    Connectivity failures are recorded as warnings (truncation can break true
    connectivity); matrix violations fail the report.
    """
    if n_check < model.tail_start + model.period:
        raise InvalidParam("n_check must cover prefix plus one tail period")
    report = ValidationReport(n_check=n_check)
    m = model.n_env
    for n in range(n_check + 1):
        V = model.V(n)
        off = V - np.diag(np.diag(V))
        if (off < 0).any():
            report.violations.append(("NegativeRate", f"V_{n}", "negative off-diagonal entry"))
        rowsums = V.sum(axis=1)
        bad = np.flatnonzero(np.abs(rowsums) > _CONSERVATIVE_TOL)
        for k in bad:
            report.violations.append(
                ("NonConservativeRow", f"V_{n} row {model.env.labels[k]}", f"row sum {rowsums[k]:.3e}")
            )
        if n >= 1:
            R = model.R(n)
            if (R < 0).any():
                report.violations.append(("NegativeRate", f"R_{n}", "negative entry"))
            rsums = R.sum(axis=1)
            bad = np.flatnonzero(np.abs(rsums - 1.0) > _CONSERVATIVE_TOL)
            for k in bad:
                report.violations.append(
                    ("NotStochasticRow", f"R_{n} row {model.env.labels[k]}", f"row sum {rsums[k]:.6f}")
                )
    # strong connectivity of the truncated graph
    rows, cols = [], []
    for n in range(n_check + 1):
        for k in range(m):
            row = generator_row(model, (n, k))
            i = n * m + k
            for (nn, kk), rate in row.transitions:
                if nn <= n_check and rate > 0:
                    rows.append(i)
                    cols.append(nn * m + kk)
    size = (n_check + 1) * m
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size))
    n_comp, comp = csgraph.connected_components(graph, directed=True, connection="strong")
    # the cap level is excluded from the requirement: states there may be
    # enterable only from level n_check + 1, which the truncation cuts off
    interior = comp[: n_check * m]
    if np.unique(interior).size > 1:
        counts = np.bincount(interior)
        small = int(np.argmin(np.where(counts > 0, counts, np.iinfo(np.int64).max)))
        members = [(i // m, model.env.labels[i % m]) for i in np.flatnonzero(interior == small)[:10]]
        report.warnings.append(
            ("NotIrreducible",
             f"{np.unique(interior).size} strong components below the cap",
             f"example component: {members}")
        )
    report.passed = not report.violations and not report.warnings
    return report
