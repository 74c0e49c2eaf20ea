"""Blocking probabilities for two cooperating data centers under trunk
reservation, computed by solving the boundary value problem of the
limiting quarter-plane random walk and cross-validated against direct
Markov-chain solves."""

__version__ = "0.1.0"

from .model import BlockingPair, ModelParams, isolated_limits, validate
from .oracle import (blocking_from_distribution, default_box, oracle_blocking,
                     solve_limiting_walk, solve_prelimit)
from .quadrature import QuadConfig
from .solver import (BlockingReport, baseline_a0, blocking,
                     blocking_with_estimate, solve_boundary, sweep)

__all__ = [
    "BlockingPair", "BlockingReport", "ModelParams", "QuadConfig",
    "baseline_a0", "blocking", "blocking_from_distribution",
    "blocking_with_estimate", "default_box", "isolated_limits",
    "oracle_blocking", "solve_boundary", "solve_limiting_walk",
    "solve_prelimit", "sweep", "validate",
]
