"""Parallelization schemes: inter, improved inter, intra, partition, ideal."""

from typing import List

from repro.errors import ConfigError
from repro.schemes.abft import AbftOverhead, abft_overhead
from repro.schemes.base import (
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

__all__ = [
    "AbftOverhead",
    "abft_overhead",
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

_SCHEMES = {
    "ideal": IdealScheme,
    "inter": InterKernelScheme,
    "inter-improved": ImprovedInterKernelScheme,
    "intra": IntraKernelScheme,
    "partition": KernelPartitionScheme,
    # extension: analyzed in Sec 4.1.2 but not part of the paper's
    # evaluated policy set (see schemes/pe2d.py)
    "pe2d": Pe2dScheme,
}


def make_scheme(name: str) -> Scheme:
    """Instantiate a scheme by its report name."""
    try:
        return _SCHEMES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; choose from {sorted(_SCHEMES)}"
        ) from None


def all_scheme_names() -> List[str]:
    """Names of every registered scheme."""
    return sorted(_SCHEMES)
