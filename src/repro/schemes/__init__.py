"""Parallelization schemes: inter, improved inter, intra, partition, ideal.

Each prices a conv layer as a row of a :class:`~repro.schemes.table.CostTable`;
``scheme.schedule(ctx, config)`` is the one-scheme view over a fresh table.
"""

from repro.schemes.abft import AbftOverhead, abft_overhead
from repro.schemes.base import (
    Costs,
    GroupGeometry,
    ScheduleResult,
    Scheme,
    group_geometry,
)
from repro.schemes.ideal import IdealScheme
from repro.schemes.inter import InterKernelScheme
from repro.schemes.inter_improved import ImprovedInterKernelScheme
from repro.schemes.intra import IntraKernelScheme
from repro.schemes.partition import KernelPartitionScheme
from repro.schemes.pe2d import Pe2dScheme
from repro.schemes.table import CostTable, all_scheme_names, make_scheme

__all__ = [
    "AbftOverhead",
    "abft_overhead",
    "CostTable",
    "Costs",
    "GroupGeometry",
    "ScheduleResult",
    "Scheme",
    "group_geometry",
    "IdealScheme",
    "InterKernelScheme",
    "ImprovedInterKernelScheme",
    "IntraKernelScheme",
    "KernelPartitionScheme",
    "Pe2dScheme",
    "make_scheme",
    "all_scheme_names",
]
