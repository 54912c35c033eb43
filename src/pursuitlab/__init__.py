"""Sparse recovery by tree-search matching pursuits, with RIP certification
and a Monte-Carlo benchmark harness.

The package namespace holds the quick start's four names; everything else
lives at its module path: pursuitlab.pursuit, .linalg, .benchlab, .ripcert
and .cli.
"""

from .benchlab import gen_problem
from .pursuit import PursuitConfig, TerminationRule, run

__all__ = ["PursuitConfig", "TerminationRule", "gen_problem", "run"]

__version__ = "0.1.0"
