"""Planning-performance benchmark: cached-vs-uncached planning and search.

Times the two workloads the ``repro.perf`` schedule cache accelerates and
writes ``BENCH_planning.json`` so the planning-speed trajectory is tracked
PR over PR:

1. **repeated plan** — the planning-service pattern: the same network is
   planned repeatedly (the oracle policy, the most expensive chooser).
   Compares N runs with the schedule cache off vs on.
2. **oracle search** — ``search_network`` over every conv layer, cache off
   vs on (VGG's repeated geometries hit even within a single cold search).

Every scenario checks that cached totals are bit-identical to the
uncached reference, and the script exits nonzero if one is not.
``--smoke`` times 2 repeats instead of 10.  Serial-vs-parallel sweeps are
not timed here: on a small host they time process-pool start-up, not
planning; ``tests/perf/test_parallel.py`` pins their bit-identity.

Usage::

    PYTHONPATH=src python benchmarks/bench_planning.py [--smoke] [--output BENCH_planning.json]
"""

from __future__ import annotations

import sys
import time

from harness import main

from repro.adaptive.planner import plan_network
from repro.adaptive.search import search_network
from repro.arch.config import CONFIG_16_16
from repro.nn.zoo import build
from repro.perf import schedule_cache

NETWORKS = ("alexnet", "vgg", "googlenet")
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


def run(args):
    repeats = SMOKE_REPEATS if args.smoke else FULL_REPEATS
    scenarios = []
    for net_name in NETWORKS:
        scenarios.append(bench_repeated_plan(net_name, repeats))
        scenarios.append(bench_oracle_search(net_name, repeats))

    payload = {
        "repeats": repeats,
        "scenarios": scenarios,
        "headline": {"best_cache_speedup": max(s["speedup"] for s in scenarios)},
    }

    lines = [
        f"{'scenario':<16s} {'network':<10s} {'base s':>10s} {'new s':>10s} {'speedup':>8s}"
    ]
    for s in scenarios:
        lines.append(
            f"{s['name']:<16s} {s['network']:<10s} {s['uncached_s']:>10.4f} "
            f"{s['cached_s']:>10.4f} {s['speedup']:>7.2f}x"
        )
    differ = [f"{s['name']}/{s['network']}" for s in scenarios if not s["bit_identical"]]
    gates = [
        (not differ, "totals differ from the uncached reference in " + ", ".join(differ)),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("planning", run, __doc__))
