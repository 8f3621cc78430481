"""Adaptive parallelization: Algorithm 2 selector, planner, oracle search."""

from repro.adaptive.batch import plan_batch
from repro.adaptive.planner import choices_for_network, plan_network
from repro.adaptive.search import best_scheme_for_layer, search_network
from repro.adaptive.selector import select_scheme

__all__ = [
    "choices_for_network",
    "plan_network",
    "plan_batch",
    "best_scheme_for_layer",
    "search_network",
    "select_scheme",
]
