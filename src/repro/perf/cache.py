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
(``frequency_hz``, ``overlap_streams``) are deliberately excluded; a hit is
rebound to the caller's exact layer name and config, so time conversion and
overlap semantics always follow the caller's config.

Illegal mappings are cached too (negative entries): the oracle probes every
candidate scheme on every layer, and "partition cannot map this geometry"
is just as deterministic as a successful schedule.  The cycle oracle's
winning scheme name, a function of the same key, has a second table.

The cache is one in-memory LRU per process: it counts hits, misses and
evictions, and can be disabled globally (``--no-plan-cache`` /
``REPRO_NO_PLAN_CACHE=1``) or per instance.  Results are immutable values,
so the cache shares the stored object instead of copying it.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.network import LayerContext
from repro.schemes import Scheme, make_scheme
from repro.schemes.base import ScheduleResult

__all__ = [
    "CacheStats",
    "ScheduleCache",
    "schedule_cache",
    "layer_key",
    "config_key",
    "DEFAULT_MAXSIZE",
]

DEFAULT_MAXSIZE = 4096


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


class ScheduleCache:
    """LRU memo of per-layer schedule results and oracle winners, keyed by content."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, enabled: bool = True) -> None:
        #: schedule key -> the scheme's result, or its ScheduleError message
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        #: (layer key, config key) -> the cycle oracle's winning scheme name
        self._winners: "OrderedDict[Tuple, str]" = OrderedDict()
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
        """Drop all schedules and winners and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._winners.clear()
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

        A miss stores and returns the scheme's own result.  A hit returns
        that stored object when its layer name and config object are the
        caller's, else one shallow copy rebound to them.  Raises
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
        if entry is None:
            try:
                result = self._scheme(scheme_name).schedule(ctx, config)
            except ScheduleError as exc:
                self._store(key, str(exc))
                raise
            self._store(key, result)
            return result
        if isinstance(entry, str):
            raise ScheduleError(entry)
        if entry.layer_name == ctx.name and entry.config is config:
            return entry
        # a frozen record's fields are values, so a shallow copy shares them;
        # built by hand because dataclasses.replace would re-run __init__
        clone = object.__new__(ScheduleResult)
        clone.__dict__.update(entry.__dict__, layer_name=ctx.name, config=config)
        return clone

    def _store(self, key: Tuple, entry: object) -> None:
        with self._lock:
            self.misses += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_search(
        self,
        ctx: LayerContext,
        config: AcceleratorConfig,
        search: Callable[[LayerContext, AcceleratorConfig], str],
    ) -> str:
        """Return the memoized ``search(ctx, config)``, a winning scheme name.

        ``search`` must depend only on the key's geometry and config, like
        the cycle oracle.  The winners share the schedules' lock, bound,
        ``clear()`` and enable switch, but not the hit/miss counters.
        """
        if not self.enabled:
            return search(ctx, config)
        key = (layer_key(ctx), config_key(config))
        with self._lock:
            name = self._winners.get(key)
            if name is not None:
                self._winners.move_to_end(key)
                return name
        name = search(ctx, config)
        with self._lock:
            self._winners[key] = name
            while len(self._winners) > self.maxsize:
                self._winners.popitem(last=False)
        return name


#: process-wide cache used by the planner, the oracle and the sweeps;
#: REPRO_NO_PLAN_CACHE=1 (or --no-plan-cache on the CLI) disables it
schedule_cache = ScheduleCache(enabled=not os.environ.get("REPRO_NO_PLAN_CACHE"))

