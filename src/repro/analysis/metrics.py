"""Comparison metrics: speedups, reductions, means.

Small, heavily-tested helpers so every experiment reports ratios the same
way the paper does ("adpa outperforms inter by 1.83x", "90.13% memory
traffic reduction", ...).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ConfigError, check_real

__all__ = ["speedup", "reduction_pct", "geomean", "arithmetic_mean"]


def speedup(baseline: float, improved: float) -> float:
    """How many times faster ``improved`` is than ``baseline`` (>1 = faster)."""
    check_real(baseline, "speedup baseline", gt=0)
    check_real(improved, "speedup improved", gt=0)
    return baseline / improved


def reduction_pct(baseline: float, improved: float) -> float:
    """Percent reduction of ``improved`` relative to ``baseline``.

    Positive means ``improved`` consumes less; negative (as in Table 5's VGG
    intra row) means it consumes more.
    """
    check_real(baseline, "reduction baseline", gt=0)
    return 100.0 * (1.0 - improved / baseline)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the honest way to average speedups)."""
    vals: Sequence[float] = list(values)
    if not vals:
        raise ConfigError("geomean of an empty sequence")
    for v in vals:
        check_real(v, "geomean value", gt=0)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average (what the paper uses for its 'average of 4 NNs')."""
    vals = list(values)
    if not vals:
        raise ConfigError("mean of an empty sequence")
    return sum(vals) / len(vals)
