"""Planning-performance benchmark: cached-vs-uncached, serial-vs-parallel.

Times the three workloads the ``repro.perf`` subsystem accelerates and
writes ``BENCH_planning.json`` so the planning-speed trajectory is tracked
PR over PR:

1. **repeated plan** — the planning-service pattern: the same network is
   planned repeatedly (the oracle policy, the most expensive chooser).
   Compares N runs with the schedule cache off vs on.
2. **oracle search** — ``search_network`` over every conv layer, cache off
   vs on (VGG's repeated geometries hit even within a single cold search).
3. **multi-point sweep** — a DRAM-bandwidth sweep grid, serial vs
   ``--jobs``-style process-pool fan-out (honest numbers: on a single-core
   host the pool can lose to serial; the cache is the headline there).

Every scenario checks that cached/parallel totals are bit-identical to
the uncached/serial reference, and the script exits nonzero if one is
not.  ``--smoke`` times 2 repeats instead of 10.

Usage::

    PYTHONPATH=src python benchmarks/bench_planning.py [--smoke] [--jobs N] [--output BENCH_planning.json]
"""

from __future__ import annotations

import sys
import time

from harness import main

from repro.adaptive.planner import plan_network
from repro.adaptive.search import search_network
from repro.analysis.sweeps import sweep_parameter
from repro.arch.config import CONFIG_16_16
from repro.nn.zoo import build
from repro.perf import resolve_jobs, schedule_cache

NETWORKS = ("alexnet", "vgg", "googlenet")
SWEEP_VALUES = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
FULL_REPEATS = 10
SMOKE_REPEATS = 2


def _time(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return time.perf_counter() - start


def bench_repeated_plan(net_name: str, repeats: int, policy: str = "oracle") -> dict:
    net = build(net_name)
    schedule_cache.configure(enabled=False)
    reference = plan_network(net, CONFIG_16_16, policy)
    uncached_s = _time(lambda: plan_network(net, CONFIG_16_16, policy), repeats)

    schedule_cache.configure(enabled=True)
    schedule_cache.clear()
    cached_s = _time(lambda: plan_network(net, CONFIG_16_16, policy), repeats)
    check = plan_network(net, CONFIG_16_16, policy)
    stats = schedule_cache.stats()
    identical = all(
        getattr(check, field) == getattr(reference, field)
        for field in ("total_cycles", "buffer_accesses", "dram_words")
    )
    return {
        "name": "repeated_plan",
        "network": net_name,
        "policy": policy,
        "repeats": repeats,
        "uncached_s": round(uncached_s, 6),
        "cached_s": round(cached_s, 6),
        "speedup": round(uncached_s / cached_s, 3),
        "bit_identical": identical,
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": round(stats.hit_rate, 4),
            "evaluations_avoided": stats.evaluations_avoided,
        },
    }


def bench_oracle_search(net_name: str, repeats: int) -> dict:
    net = build(net_name)
    schedule_cache.configure(enabled=False)
    reference = search_network(net, CONFIG_16_16)
    uncached_s = _time(lambda: search_network(net, CONFIG_16_16), repeats)

    schedule_cache.configure(enabled=True)
    schedule_cache.clear()
    cached_s = _time(lambda: search_network(net, CONFIG_16_16), repeats)
    check = search_network(net, CONFIG_16_16)
    identical = [(o.layer_name, o.scheme, o.cycles) for o in check] == [
        (o.layer_name, o.scheme, o.cycles) for o in reference
    ]
    return {
        "name": "oracle_search",
        "network": net_name,
        "repeats": repeats,
        "uncached_s": round(uncached_s, 6),
        "cached_s": round(cached_s, 6),
        "speedup": round(uncached_s / cached_s, 3),
        "bit_identical": identical,
    }


def bench_parallel_sweep(net_name: str, repeats: int, jobs: int) -> dict:
    """Serial against pooled sweeps; ``jobs`` is recorded as requested (-1 =
    all CPUs), so the file does not depend on the host's CPU count."""
    net = build(net_name)
    schedule_cache.configure(enabled=True)
    workers = resolve_jobs(jobs)

    def run(n_jobs):
        return sweep_parameter(
            net, CONFIG_16_16, "dram_words_per_cycle", SWEEP_VALUES, jobs=n_jobs
        )

    reference = run(1)
    serial_s = _time(lambda: run(1), repeats)
    parallel_s = _time(lambda: run(workers), repeats)
    return {
        "name": "parallel_sweep",
        "network": net_name,
        "grid_points": len(SWEEP_VALUES),
        "repeats": repeats,
        "jobs": jobs,
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 3),
        "bit_identical": run(workers) == reference,
    }


def run(args):
    repeats = SMOKE_REPEATS if args.smoke else FULL_REPEATS
    scenarios = []
    for net_name in NETWORKS:
        scenarios.append(bench_repeated_plan(net_name, repeats))
        scenarios.append(bench_oracle_search(net_name, repeats))
    scenarios.append(
        bench_parallel_sweep("alexnet", max(1, repeats // 5), args.jobs)
    )

    cache_speedups = [
        s["speedup"] for s in scenarios if s["name"] in ("repeated_plan", "oracle_search")
    ]
    parallel_speedups = [s["speedup"] for s in scenarios if s["name"] == "parallel_sweep"]
    payload = {
        "repeats": repeats,
        "scenarios": scenarios,
        "headline": {
            "best_cache_speedup": max(cache_speedups),
            "best_parallel_speedup": max(parallel_speedups),
        },
    }

    lines = [
        f"{'scenario':<16s} {'network':<10s} {'base s':>10s} {'new s':>10s} {'speedup':>8s}"
    ]
    for s in scenarios:
        base = s.get("uncached_s", s.get("serial_s"))
        new = s.get("cached_s", s.get("parallel_s"))
        lines.append(
            f"{s['name']:<16s} {s['network']:<10s} {base:>10.4f} {new:>10.4f} {s['speedup']:>7.2f}x"
        )
    differ = [f"{s['name']}/{s['network']}" for s in scenarios if not s["bit_identical"]]
    gates = [
        (not differ, "totals differ from the uncached/serial reference in " + ", ".join(differ)),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("planning", run, __doc__, jobs=-1))
