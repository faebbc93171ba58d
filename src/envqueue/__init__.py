"""Exponential queues in a finite interactive random environment: product
form separability, Lyapunov ergodicity certificates, truncated solves,
simulation, and two-sided throughput bounds."""

__version__ = "0.1.0"

from .catalog import catalog
from .model import EnvironmentSpec, JointModel, RateFamily, generator_row
from .separability import product_form, queue_marginal, reachability, reduced_generator, solve_theta

__all__ = [
    "__version__",
    "catalog",
    "EnvironmentSpec",
    "JointModel",
    "RateFamily",
    "generator_row",
    "product_form",
    "queue_marginal",
    "reachability",
    "reduced_generator",
    "solve_theta",
]
