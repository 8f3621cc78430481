"""Parallelization schemes: inter, improved inter, intra, partition, ideal.

Each prices a conv layer as a row of a :class:`~repro.schemes.table.CostTable`;
``scheme.schedule(ctx, config)`` is the one-scheme view over a fresh table.
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
