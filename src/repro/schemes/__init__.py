"""Parallelization schemes: inter, improved inter, intra, partition, ideal.

Each prices a conv layer as a row of a :class:`~repro.schemes.table.CostTable`.
Callers read a scheme's record from the schedule cache's table of the
layer, ``schedule_cache.table(ctx, config).result(name, ctx, config)``, so
``--no-plan-cache`` governs every one of them.
"""

from repro.schemes.base import GroupGeometry, group_geometry
from repro.schemes.table import CostTable, all_scheme_names, make_scheme

__all__ = [
    "CostTable",
    "GroupGeometry",
    "group_geometry",
    "make_scheme",
    "all_scheme_names",
]
