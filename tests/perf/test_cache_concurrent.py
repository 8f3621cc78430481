"""Schedule cache under concurrency: worker processes and racing threads.

``parallel_map`` fans whole plans out to worker *processes* (each worker
warms its own process-local cache).  The package starts no thread itself,
but the cache is process-wide and its lock keeps its LRU and counters
exact for any threaded caller; the threads here are this module's own.
These tests pin down both properties: results must be bit-identical
with/without the cache and with/without a pool, and the shared cache's
counters must stay consistent (no lost or double-counted lookups) under a
thread race.
"""

from __future__ import annotations

import sys
import threading

from repro.adaptive.planner import plan_network
from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.nn.zoo import build
from repro.perf.cache import ScheduleCache, schedule_cache
from repro.perf.parallel import parallel_map
from repro.schemes import CostTable
from repro.tiling.fit import analyze_fit

NETWORKS = ("alexnet", "googlenet", "vgg", "nin")


def _fingerprint(run):
    return (
        run.network_name,
        run.total_cycles,
        run.buffer_accesses,
        run.dram_words,
        run.input_reorder_words,
        tuple(
            (r.layer_name, r.scheme, r.operations, r.dram_words, r.total_cycles)
            for r in run.layers
        ),
    )


def _plan_one(name):
    """Module-level so it pickles across the process boundary."""
    return _fingerprint(plan_network(build(name), CONFIG_16_16, "adaptive-2"))


def _plan_many(names, jobs):
    return parallel_map(_plan_one, names, jobs=jobs)


class TestParallelMapHammering:
    """Worker processes re-deriving schedules must agree with the parent."""

    def test_parallel_results_bit_identical_with_and_without_cache(self):
        work = list(NETWORKS) * 3  # repeats force cache hits where enabled
        schedule_cache.configure(enabled=True)
        schedule_cache.clear()
        cached_serial = _plan_many(work, jobs=1)
        cached_parallel = _plan_many(work, jobs=4)
        schedule_cache.configure(enabled=False)
        try:
            uncached_serial = _plan_many(work, jobs=1)
            uncached_parallel = _plan_many(work, jobs=4)
        finally:
            schedule_cache.configure(enabled=True)
        assert cached_serial == uncached_serial
        assert cached_parallel == uncached_parallel
        assert cached_serial == cached_parallel

    def test_parent_stats_consistent_after_fanout(self):
        schedule_cache.configure(enabled=True)
        schedule_cache.clear()
        _plan_many(list(NETWORKS) * 2, jobs=4)
        stats = schedule_cache.stats()
        assert stats.lookups == stats.hits + stats.misses
        assert stats.size <= stats.maxsize
        # every entry the parent holds was stored by a counted miss
        assert stats.size <= stats.misses + stats.evictions or stats.lookups == 0


class TestThreadedHammering:
    """Many threads sharing one cache instance, as a threaded caller would."""

    def test_threaded_plans_identical_and_counters_add_up(self):
        reference = {name: _plan_one(name) for name in NETWORKS}
        results = []
        errors = []
        lock = threading.Lock()
        rounds = 5

        def worker(name):
            try:
                for _ in range(rounds):
                    fp = _fingerprint(
                        plan_network(build(name), CONFIG_16_16, "adaptive-2")
                    )
                    with lock:
                        results.append((name, fp))
            except Exception as exc:  # pragma: no cover - diagnostic path
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in NETWORKS
            for _ in range(3)
        ]
        enabled = schedule_cache.enabled
        schedule_cache.configure(enabled=True)
        schedule_cache.clear()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = schedule_cache.stats()
        finally:
            schedule_cache.configure(enabled=enabled)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == len(NETWORKS) * 3 * rounds
        for name, fp in results:
            assert fp == reference[name], name
        # an adaptive-2 plan looks up one table per conv layer
        convs = sum(len(build(name).conv_contexts()) for name in NETWORKS)
        assert stats.hits + stats.misses == 3 * rounds * convs == 1350

    def test_shared_cache_counters_race_free(self):
        """hits + misses must equal the exact number of lookups issued."""
        cache = ScheduleCache(maxsize=4096)
        net = build("vgg")
        contexts = list(net.conv_contexts())
        rounds = 10
        n_threads = 8

        def worker():
            for _ in range(rounds):
                for ctx in contexts:
                    cache.get_or_schedule("intra", ctx, CONFIG_16_16)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats()
        assert stats.lookups == n_threads * rounds * len(contexts)
        assert stats.lookups == stats.hits + stats.misses
        # identical geometries may race to a miss, but the cache can never
        # report fewer misses than distinct stored entries
        assert stats.misses >= stats.size
        assert stats.evictions == 0


class TestThreadedPricing:
    """Threads racing on fresh tables and contexts: a table publishes its
    candidates' rows at once, ``winner`` ranks the rows it finds, and a
    context's memoized layer quantities are the same whichever thread
    derives them first."""

    def test_racing_winners_match_a_serial_pass(self):
        configs = [
            AcceleratorConfig(tin=tin, tout=tout)
            for tin in range(1, 65, 3)
            for tout in range(1, 65, 3)
        ]

        def work():
            contexts = build("alexnet").conv_contexts()[:3]  # fresh contexts
            return [(ctx, config) for config in configs for ctx in contexts]

        reference = [CostTable(ctx, config).winner(ctx, config) for ctx, config in work()]
        tables = [(CostTable(ctx, config), ctx, config) for ctx, config in work()]
        start = threading.Barrier(4)
        results, errors = [], []

        def worker():
            try:
                start.wait(timeout=30)
                results.append([table.winner(ctx, config) for table, ctx, config in tables])
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert results == [reference] * 4


class TestRacingFirstLookups:
    """Threads keying fresh contexts and configs for the first time while
    they look them up in one cache."""

    def test_first_lookups_never_share_a_key(self):
        """Each thread gets the table of its own geometry and config, with
        its own memory system's fit, and the cache counts one miss per
        distinct key: keys are the content itself, not ids handed out in
        the order threads arrive."""
        shapes = [(tin, tout) for tin in (4, 8, 16, 32) for tout in (8, 16)]
        memories = [1.0, 4.0]  # DRAM words per cycle
        n_threads = 8
        cache = ScheduleCache(maxsize=4096)
        start = threading.Barrier(n_threads)
        seen, errors = [], []

        def worker(index):
            try:
                contexts = build(NETWORKS[index % len(NETWORKS)]).conv_contexts()
                configs = [
                    AcceleratorConfig(tin=tin, tout=tout, dram_words_per_cycle=rate)
                    for tin, tout in shapes
                    for rate in memories
                ]
                start.wait(timeout=30)
                for config in configs[index % 3 :: 3] + configs:
                    for ctx in contexts:
                        table = cache.table(ctx, config)
                        seen.append((ctx, config, table))
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,)) for index in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        keys = set()
        for ctx, config, table in seen:
            assert table.ctx.geometry_key == ctx.geometry_key
            assert table.config.schedule_key == config.schedule_key
            assert table.fit == analyze_fit(ctx, config)
            keys.add((ctx.geometry_key, config.schedule_key))
        stats = cache.stats()
        assert stats.misses == len(keys) and stats.evictions == 0
        assert stats.lookups == len(seen)
