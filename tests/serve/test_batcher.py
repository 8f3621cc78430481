"""Batch policy readiness rule and the memoized batch cost model."""

from __future__ import annotations

import math

import pytest

from repro.adaptive.batch import plan_batch
from repro.errors import ConfigError
from repro.perf.cache import schedule_cache
from repro.serve.batcher import BatchCoster, BatchPolicy


class TestBatchPolicy:
    def test_full_group_ready_immediately(self):
        p = BatchPolicy(max_batch=4, max_wait_ms=50)
        assert p.ready_time(oldest_arrival_s=1.0, depth=4) == 1.0
        assert p.ready_time(oldest_arrival_s=1.0, depth=9) == 1.0

    def test_partial_group_waits_out_the_timer(self):
        p = BatchPolicy(max_batch=4, max_wait_ms=50)
        assert p.ready_time(oldest_arrival_s=1.0, depth=3) == pytest.approx(1.05)

    def test_batch1_never_waits(self):
        p = BatchPolicy(max_batch=1, max_wait_ms=50)
        assert p.ready_time(oldest_arrival_s=2.0, depth=1) == 2.0

    def test_describe(self):
        assert BatchPolicy(max_batch=1).describe() == "batch-1"
        assert "max_batch=8" in BatchPolicy(max_batch=8, max_wait_ms=5).describe()

    @pytest.mark.parametrize("bad", [0, -1, True, 4.0, "4"])
    def test_invalid_max_batch(self, bad):
        with pytest.raises(ConfigError):
            BatchPolicy(max_batch=bad)

    def test_invalid_max_wait(self):
        for bad in (-1, math.nan, math.inf, True):
            with pytest.raises(ConfigError, match=f"max_wait_ms .* got {bad!r}"):
                BatchPolicy(max_wait_ms=bad)
        assert BatchPolicy(max_wait_ms=0).max_wait_s == 0.0


class TestBatchCoster:
    def test_matches_plan_batch(self, alexnet, cfg16):
        coster = BatchCoster(cfg16)
        direct = plan_batch(alexnet, cfg16, batch_size=8, include_non_conv=True)
        assert coster.batch_seconds("alexnet", 8) == pytest.approx(
            cfg16.cycles_to_seconds(direct.total_cycles)
        )

    def test_memoizes_per_network_and_size(self, cfg16):
        coster = BatchCoster(cfg16)
        a = coster.batch_seconds("alexnet", 4)
        b = coster.batch_seconds("alexnet", 4)
        assert a == b
        assert coster.memo_hits == 1
        assert coster.memo_misses == 1
        coster.batch_seconds("alexnet", 8)
        assert coster.memo_misses == 2

    def test_pulls_plans_through_schedule_cache(self, cfg16):
        schedule_cache.configure(enabled=True)
        schedule_cache.clear()
        coster = BatchCoster(cfg16)
        coster.batch_seconds("alexnet", 1)
        before = schedule_cache.stats()
        assert before.misses > 0  # cold plan populated the cache
        # a different batch size re-plans the same single-image schedules:
        # every layer must come from the cache now
        coster.batch_seconds("alexnet", 32)
        after = schedule_cache.stats()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_larger_batches_amortize_fc(self, cfg16):
        coster = BatchCoster(cfg16)
        assert coster.image_seconds("alexnet", 16) < coster.image_seconds("alexnet", 1)
        assert coster.capacity_rps("alexnet", 16) > 2 * coster.capacity_rps("alexnet", 1)

    def test_unknown_network_raises(self, cfg16):
        coster = BatchCoster(cfg16)
        with pytest.raises(ConfigError, match="unknown network"):
            coster.batch_seconds("lenet", 1)
