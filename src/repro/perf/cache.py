"""Content-addressed cache of cost tables.

Every scheme's costs on a layer are a pure function of the layer's
*geometry* (``LayerContext.geometry_key``) and the config knobs that shape
the mapping (``AcceleratorConfig.schedule_key``), so the cache keeps one
:class:`~repro.schemes.table.CostTable` per pair of keys: AlexNet's conv4
and conv5, VGG's repeated 3x3 stacks, the policies of a sweep and every
re-plan share one table, non-conv layers included.  Each key is a ``str``
computed once per context or config, so a lookup hashes a pair of
strings whose hashes CPython has already cached; being content, not
process-local ids, the keys stay valid in a ``--jobs`` worker.  The
layer's name, ``frequency_hz`` and ``overlap_streams`` are left out: a
table rebinds its records to the caller's layer name and config and ranks
the oracle's winner per overlap flag.  An illegal mapping is cached too,
as the row's name-free reason, raised with each caller's layer name.

A conv layer's buffer fit reads only its geometry and the memory system
(``AcceleratorConfig.fit_key``: the three data buffers' words and the DRAM
rate), so the cache also keeps one
:class:`~repro.tiling.fit.FitReport` per (geometry, memory) and hands it
to each table it builds: a sweep over PE shapes derives each layer's fit
once.

One in-memory LRU of tables per process counts a hit or miss per lookup
and its evictions; ``clear()`` drops the tables and the fits alike.
``--no-plan-cache`` / ``REPRO_NO_PLAN_CACHE=1`` (or a disabled instance)
gives every lookup a fresh table that derives its own fit.  The package
starts no thread, but a lock keeps the LRU, the fits and the counters
exact for any threaded caller.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.config import AcceleratorConfig
from repro.nn.layers import ConvLayer
from repro.nn.network import LayerContext
from repro.schemes.base import ScheduleResult
from repro.schemes.table import CostTable
from repro.tiling.fit import FitReport, analyze_fit

__all__ = [
    "CacheStats",
    "ScheduleCache",
    "schedule_cache",
    "DEFAULT_MAXSIZE",
]

#: tables, each holding up to six schemes' rows and the records kept from them
DEFAULT_MAXSIZE = 1024


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    enabled: bool

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def evaluations_avoided(self) -> int:
        """Cost-table builds the cache saved (one per hit)."""
        return self.hits


class ScheduleCache:
    """LRU memo of per-(layer geometry, config) cost tables, keyed by content."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, enabled: bool = True) -> None:
        self._tables: "OrderedDict[Tuple[str, str], CostTable]" = OrderedDict()
        #: (geometry key, fit key) -> a conv layer's buffer fit, at most
        #: ``maxsize`` of them, the oldest dropped first
        self._fits: Dict[Tuple[str, str], FitReport] = {}
        self._lock = threading.Lock()
        self.maxsize = maxsize
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- configuration ----------------------------------------------------

    def configure(self, enabled: bool) -> None:
        """Flip the enable switch (``--no-plan-cache``)."""
        with self._lock:
            self.enabled = enabled

    def clear(self) -> None:
        """Drop all tables and fits and zero the counters."""
        with self._lock:
            self._tables.clear()
            self._fits.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._tables),
                maxsize=self.maxsize,
                enabled=self.enabled,
            )

    def __len__(self) -> int:
        return len(self._tables)

    # -- the hot path -----------------------------------------------------

    def table(self, ctx: LayerContext, config: AcceleratorConfig) -> CostTable:
        """The cost table of ``ctx``'s geometry under ``config``'s knobs."""
        if not self.enabled:
            return CostTable(ctx, config)
        key = (ctx.geometry_key, config.schedule_key)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self.hits += 1
                return table
            table = self._tables[key] = CostTable(ctx, config, self._fit(ctx, config))
            self.misses += 1
            while len(self._tables) > self.maxsize:
                self._tables.popitem(last=False)
                self.evictions += 1
            return table

    def _fit(self, ctx: LayerContext, config: AcceleratorConfig) -> Optional[FitReport]:
        """``ctx``'s buffer fit under ``config``'s memory system, derived once
        per (geometry, memory); None for a non-conv layer.  Called with the
        lock held."""
        if not isinstance(ctx.layer, ConvLayer):
            return None
        key = (ctx.geometry_key, config.fit_key)
        fit = self._fits.get(key)
        if fit is None:
            fit = self._fits[key] = analyze_fit(ctx, config)
            if len(self._fits) > self.maxsize:
                del self._fits[next(iter(self._fits))]
        return fit

    def get_or_schedule(
        self, scheme_name: str, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        """``scheme_name``'s record on ``ctx`` under ``config``, from its table.

        Raises :class:`ScheduleError` naming ``ctx`` exactly as the uncached
        ``scheme.schedule`` would.
        """
        return self.table(ctx, config).result(scheme_name, ctx, config)


#: process-wide cache used by the planner, the oracle and the sweeps;
#: REPRO_NO_PLAN_CACHE=1 (or --no-plan-cache on the CLI) disables it
schedule_cache = ScheduleCache(enabled=not os.environ.get("REPRO_NO_PLAN_CACHE"))
