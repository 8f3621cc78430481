"""Adaptive parallelization: Algorithm 2 selector, planner, oracle search."""

from repro.adaptive.planner import (
    POLICY_NAMES,
    choices_for_network,
    plan_network,
)
from repro.adaptive.batch import BatchRun, batch_layer, plan_batch
from repro.adaptive.search import (
    OBJECTIVES,
    SearchOutcome,
    best_scheme_for_layer,
    layer_energy_pj,
    search_network,
)
from repro.adaptive.selector import SchemeChoice, layout_for_scheme, select_scheme

__all__ = [
    "POLICY_NAMES",
    "choices_for_network",
    "plan_network",
    "BatchRun",
    "batch_layer",
    "plan_batch",
    "OBJECTIVES",
    "layer_energy_pj",
    "SearchOutcome",
    "best_scheme_for_layer",
    "search_network",
    "SchemeChoice",
    "layout_for_scheme",
    "select_scheme",
]
