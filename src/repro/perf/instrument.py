"""Lightweight perf instrumentation: phase wall-times and counters.

The planner, oracle search, batch planner and sweeps wrap their work in
:func:`phase` blocks; the CLI's ``--perf-report`` renders the accumulated
times together with the schedule-cache counters.  Overhead per phase entry
is two ``perf_counter`` calls and a dict update — negligible next to even a
single layer schedule — so the recorder stays always-on.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["PerfRecorder", "PERF", "phase", "render_perf_report"]


class PerfRecorder:
    """Accumulates wall-time per named phase plus free-form counters."""

    def __init__(self) -> None:
        #: phase name -> [entry count, total seconds]
        self._phases: "OrderedDict[str, list]" = OrderedDict()
        self._counters: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one entry of phase ``name`` (re-entrant and nestable)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            entry = self._phases.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed

    def incr(self, name: str, by: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + by

    def reset(self) -> None:
        self._phases.clear()
        self._counters.clear()

    def phases(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"calls": n, "seconds": s}}`` snapshot."""
        return {
            name: {"calls": count, "seconds": seconds}
            for name, (count, seconds) in self._phases.items()
        }

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)


#: process-wide recorder used by the planning layers and the CLI
PERF = PerfRecorder()


def phase(name: str):
    """Shorthand for ``PERF.phase(name)``."""
    return PERF.phase(name)


def render_perf_report(recorder: Optional[PerfRecorder] = None, cache=None) -> str:
    """Human-readable summary: phase times, counters, cache stats."""
    if recorder is None:
        recorder = PERF
    if cache is None:
        from repro.perf.cache import schedule_cache as cache

    lines = ["perf report", "-" * 64]
    phases = recorder.phases()
    if phases:
        lines.append(f"{'phase':<28s} {'calls':>7s} {'total s':>10s} {'avg ms':>10s}")
        for name, data in phases.items():
            calls, seconds = data["calls"], data["seconds"]
            avg_ms = seconds / calls * 1e3 if calls else 0.0
            lines.append(f"{name:<28s} {calls:>7d} {seconds:>10.4f} {avg_ms:>10.3f}")
    else:
        lines.append("(no timed phases recorded)")
    counters = recorder.counters()
    for name, value in sorted(counters.items()):
        lines.append(f"{name:<28s} {value:>7d}")
    stats = cache.stats()
    state = "enabled" if stats.enabled else "disabled"
    lines.append(
        f"plan cache ({state}): {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.1%} hit rate), {stats.evictions} evictions, "
        f"{stats.size}/{stats.maxsize} entries"
    )
    lines.append(f"scheme evaluations avoided: {stats.evaluations_avoided}")
    return "\n".join(lines)
