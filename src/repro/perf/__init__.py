"""Planning-performance subsystem: schedule cache, parallel executor, timers.

The planner, the oracle search and every design-space sweep ultimately
price schemes on (layer geometry, config) pairs — and real workloads
repeat those pairs constantly: VGG stacks the same 3x3 conv geometry dozens
of times, and a sweep replans the same network at every grid point.  This
package makes that redundancy free:

- :mod:`repro.perf.cache` — content-addressed memoization of cost tables
  (every scheme's costs, kept records and oracle winners on one layer
  geometry), keyed by layer geometry plus the config knobs that actually
  affect scheduling (LRU-bounded, opt-out);
- :mod:`repro.perf.parallel` — a process-pool ``parallel_map`` with
  deterministic result ordering and graceful serial fallback, used to fan
  out oracle searches and sweep grids;
- :mod:`repro.perf.instrument` — wall-time phase accounting and the
  ``--perf-report`` renderer.

See ``docs/performance.md`` for the cache-key design and CLI semantics.
"""

from repro.perf.cache import schedule_cache
from repro.perf.instrument import render_perf_report
from repro.perf.parallel import parallel_map, set_default_jobs

__all__ = [
    "schedule_cache",
    "render_perf_report",
    "parallel_map",
    "set_default_jobs",
]
