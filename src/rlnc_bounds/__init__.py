"""Decoding-failure probability toolkit for relay-based random linear
network coding over packet erasure channels: analytical upper/lower bounds,
a seeded Monte Carlo simulator and an exact enumeration oracle."""

from .bounds import (BoundSet, NetworkParams, PerDeliveryTables,
                     column_dependence_bound, evaluate_all, expected_null_vectors,
                     lb_new, lb_old, row_zero_sum_prob, ub_new, ub_old,
                     zero_column_prob)
from .fields import FieldSpec, make_field
from .linalg import rank_batch
from .simulate import (ExactResult, SimEstimate, StateSpaceExceeded,
                       estimate_pfail, exact_pfail)

__version__ = "0.1.0"

__all__ = [
    "BoundSet", "ExactResult", "FieldSpec", "NetworkParams", "PerDeliveryTables", "SimEstimate",
    "StateSpaceExceeded", "column_dependence_bound", "estimate_pfail", "evaluate_all",
    "exact_pfail", "expected_null_vectors", "lb_new", "lb_old", "make_field", "rank_batch",
    "row_zero_sum_prob", "ub_new", "ub_old", "zero_column_prob",
]
