"""otlab: entropic optimal transport solved by fixed-weight attention layers,
with the oracles and property harnesses that verify the equivalence."""

__version__ = "0.1.0"

from .problem import ProblemInstance, cost_matrix, permutation_instance  # noqa: F401
from .sinkhorn_lab import SinkhornError, gibbs_kernel, sinkhorn_solve  # noqa: F401
from .transformer_core import (  # noqa: F401
    DivergenceError,
    apply_plan,
    attention_pattern,
    build_constructed_weights,
    divergence_guard,
    forward,
)
