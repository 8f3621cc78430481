"""Ideal upper-bound schedule (the "ideal" series in Fig. 7).

Assumes every multiplier is 100% utilized and data alignment is perfect, so
the layer takes ``ceil(MACs / (Tin*Tout))`` cycles, each tensor crosses each
interface exactly once, and no buffer space or bandwidth is wasted.
"""

from __future__ import annotations

from repro.schemes.base import Scheme

__all__ = ["IdealScheme"]


class IdealScheme(Scheme):
    """100%-utilization bound used to normalize the other schemes."""

    name = "ideal"
