"""Terminal bar charts — the paper's figures without matplotlib.

Figs. 7, 8 and 10 are grouped log-scale bar charts; this module renders the
same data as unicode horizontal bars so ``python -m repro report --plots``
and the examples can show the *shape* of each result directly in a
terminal or a CI log.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigError, check_real

__all__ = ["hbar_chart", "grouped_log_chart"]

_BAR = "█"
_HALF = "▌"


def _scaled_width(
    value: float,
    lo: float,
    hi: float,
    max_width: int,
    log: bool,
) -> int:
    if log:
        span = math.log10(hi) - math.log10(lo)
        frac = 0.0 if span == 0 else (math.log10(value) - math.log10(lo)) / span
    else:
        frac = value / hi if hi else 0.0
    frac = min(1.0, max(0.0, frac))
    return max(1, round(frac * max_width))


def hbar_chart(
    values: Mapping[str, float],
    title: str = "",
    max_width: int = 48,
    log: bool = False,
    unit: str = "",
) -> str:
    """One horizontal bar per (label, value).

    ``log=True`` scales bars between the min and max on a log10 axis —
    the paper's figures are all log-scale, where a 100x gap must remain
    visible next to a 1.2x gap.
    """
    if not values:
        raise ConfigError("nothing to plot")
    for value in values.values():
        check_real(value, "bar value", gt=0)
    lo, hi = min(values.values()), max(values.values())
    if log and lo == hi:
        log = False
    label_w = max(len(k) for k in values)
    lines = []
    if title:
        lines.append(title)
    for label, value in values.items():
        width = _scaled_width(value, lo, hi, max_width, log)
        bar = _BAR * width
        lines.append(f"{label.rjust(label_w)} |{bar} {value:.3g}{unit}")
    return "\n".join(lines)


def grouped_log_chart(
    groups: Mapping[str, Mapping[str, float]],
    title: str = "",
    max_width: int = 48,
    series_order: Optional[Sequence[str]] = None,
) -> str:
    """A log-scale bar chart with one block per group (the Fig. 7/8/10 look).

    ``groups`` maps group label (e.g. ``"16-16 alexnet"``) to a
    series->value mapping (e.g. scheme -> cycles).  All bars share one
    global log scale so cross-group comparisons stay honest.
    """
    if not groups:
        raise ConfigError("nothing to plot")
    all_values = [v for series in groups.values() for v in series.values()]
    if not all_values:
        raise ConfigError("nothing to plot")
    for value in all_values:
        check_real(value, "bar value", gt=0)
    lo, hi = min(all_values), max(all_values)
    log = lo != hi

    series_names: List[str] = list(series_order) if series_order else []
    if not series_names:
        seen: Dict[str, None] = {}
        for series in groups.values():
            for name in series:
                seen.setdefault(name)
        series_names = list(seen)
    label_w = max(len(s) for s in series_names)

    lines = []
    if title:
        lines.append(title)
    for group_label, series in groups.items():
        lines.append(f"-- {group_label}")
        for name in series_names:
            if name not in series:
                continue
            value = series[name]
            width = _scaled_width(value, lo, hi, max_width, log)
            lines.append(
                f"  {name.rjust(label_w)} |{_BAR * width} {value:.3g}"
            )
    return "\n".join(lines)
