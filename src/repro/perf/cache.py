"""Content-addressed schedule cache.

A scheme's :meth:`~repro.schemes.base.Scheme.schedule` is a pure function of
the layer's *geometry* and the config knobs that shape the mapping — the
layer's name and the clock frequency never enter the arithmetic.  The cache
exploits that: results are memoized under a canonical key

    (scheme name,
     layer geometry: k, s, pad, Din, Dout, groups, bias, in/out shapes,
     config knobs:   Tin, Tout, the four buffer sizes, word width,
                     DRAM words/cycle)

so AlexNet's conv4 and conv5 (identical geometry), VGG's repeated 3x3
stacks, and every re-plan of the same network hit instead of re-deriving the
whole tiling.  Knobs that do *not* affect the schedule arithmetic
(``frequency_hz``, ``overlap_streams``) are deliberately excluded; a cached
result is rebound to the caller's exact ``ctx``/``config`` on the way out,
so time conversion and overlap semantics always follow the caller's config.

Illegal mappings are cached too (negative entries): the oracle probes every
candidate scheme on every layer, and "partition cannot map this geometry"
is just as deterministic as a successful schedule.

The cache is one in-memory LRU per process: it counts hits, misses and
evictions, and can be disabled globally (``--no-plan-cache`` /
``REPRO_NO_PLAN_CACHE=1``) or per instance.  Entries are defensive copies
in both directions — callers may freely mutate returned results without
corrupting the cache.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.network import LayerContext
from repro.schemes import Scheme, make_scheme
from repro.schemes.base import ScheduleResult

__all__ = [
    "CacheStats",
    "ScheduleCache",
    "schedule_cache",
    "cached_schedule",
    "layer_key",
    "config_key",
    "DEFAULT_MAXSIZE",
]

DEFAULT_MAXSIZE = 4096

#: sentinel marker for negative entries (the scheme raised ScheduleError)
_ILLEGAL = "illegal"


def layer_key(ctx: LayerContext) -> Tuple:
    """Canonical geometry of one layer context (name-independent)."""
    layer = ctx.layer
    return (
        type(layer).__name__,
        getattr(layer, "kernel", 0),
        getattr(layer, "stride", 0),
        getattr(layer, "pad", 0),
        getattr(layer, "in_maps", 0),
        getattr(layer, "out_maps", 0),
        getattr(layer, "groups", 1),
        getattr(layer, "bias", False),
        ctx.in_shape.as_tuple(),
        ctx.out_shape.as_tuple(),
    )


def config_key(config: AcceleratorConfig) -> Tuple:
    """The config knobs that affect schedule arithmetic, nothing more."""
    return (
        config.tin,
        config.tout,
        config.input_buffer_bytes,
        config.output_buffer_bytes,
        config.weight_buffer_bytes,
        config.bias_buffer_bytes,
        config.word_bytes,
        config.dram_words_per_cycle,
    )


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
        """Scheme evaluations the cache saved (one per hit)."""
        return self.hits


def _copy_result(
    result: ScheduleResult,
    layer_name: Optional[str] = None,
    config: Optional[AcceleratorConfig] = None,
) -> ScheduleResult:
    """Copy with fresh mutable containers, optionally rebound to a caller.

    Hand-rolled instead of :func:`dataclasses.replace` because this is the
    cache's hot path — a hit must stay several times cheaper than running
    the scheme, and ``replace`` alone costs a third of a schedule.
    """
    clone = object.__new__(ScheduleResult)
    clone.__dict__.update(result.__dict__)
    clone.accesses = {
        name: AccessCounter(c.loads, c.stores)
        for name, c in result.accesses.items()
    }
    clone.notes = dict(result.notes)
    if layer_name is not None:
        clone.layer_name = layer_name
    if config is not None:
        clone.config = config
    return clone


class ScheduleCache:
    """LRU memo of per-layer schedule results, keyed by content."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, enabled: bool = True) -> None:
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._schemes: Dict[str, Scheme] = {}
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
        """Drop all entries and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
                enabled=self.enabled,
            )

    def __len__(self) -> int:
        return len(self._entries)

    # -- the hot path -----------------------------------------------------

    def _scheme(self, name: str) -> Scheme:
        scheme = self._schemes.get(name)
        if scheme is None:
            scheme = self._schemes[name] = make_scheme(name)
        return scheme

    def get_or_schedule(
        self, scheme_name: str, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        """Return the memoized schedule for ``(scheme, geometry, config)``.

        On a miss the scheme runs once and the result is stored; on a hit a
        fresh copy is rebound to the caller's layer name and config.  Raises
        :class:`ScheduleError` exactly as the uncached path would (negative
        entries replay the failure without re-probing the scheme).
        """
        if not self.enabled:
            return self._scheme(scheme_name).schedule(ctx, config)
        key = (scheme_name, layer_key(ctx), config_key(config))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is not None:
            if isinstance(entry, tuple) and entry[0] is _ILLEGAL:
                raise ScheduleError(entry[1])
            return _copy_result(entry, layer_name=ctx.name, config=config)
        try:
            result = self._scheme(scheme_name).schedule(ctx, config)
        except ScheduleError as exc:
            self._store(key, (_ILLEGAL, str(exc)))
            raise
        self._store(key, _copy_result(result))
        return result

    def _store(self, key: Tuple, entry: object) -> None:
        with self._lock:
            self.misses += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1


#: process-wide cache used by the planner, the oracle and the sweeps;
#: REPRO_NO_PLAN_CACHE=1 (or --no-plan-cache on the CLI) disables it
schedule_cache = ScheduleCache(enabled=not os.environ.get("REPRO_NO_PLAN_CACHE"))


def cached_schedule(
    scheme_name: str, ctx: LayerContext, config: AcceleratorConfig
) -> ScheduleResult:
    """Schedule through the process-wide cache (the planner's entry point)."""
    return schedule_cache.get_or_schedule(scheme_name, ctx, config)
