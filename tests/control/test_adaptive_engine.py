"""AdaptiveServingEngine: epoch stepping, fleet mutation, chip-seconds."""

from __future__ import annotations

import math

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import (
    AdaptiveServingEngine,
    _peak_fleet_size,
    AdaptiveReplica,
)
from repro.serve.workload import TenantSpec, poisson_arrivals
from tests.serve.test_engine_oracle import StaticLoopEngine

ALEX = [TenantSpec("alexnet", "alexnet")]
MIXED = [
    TenantSpec("alexnet", "alexnet", weight=2.0),
    TenantSpec("nin", "nin", weight=1.0, slo_ms=500.0),
]

_COSTER = BatchCoster(CONFIG_16_16)


def adaptive(**kwargs):
    kwargs.setdefault("coster", _COSTER)
    return AdaptiveServingEngine(CONFIG_16_16, **kwargs)


def static(**kwargs):
    kwargs.setdefault("coster", _COSTER)
    return StaticLoopEngine(CONFIG_16_16, **kwargs)


class TestParityWithStaticEngine:
    """With no mid-run actions the adaptive engine is the static loop."""

    @pytest.mark.parametrize("routing", ["round-robin", "least-loaded"])
    def test_completions_match(self, routing):
        reqs = poisson_arrivals(120, 3, MIXED, seed=11)
        a = adaptive(replicas=3, routing=routing).run(reqs, 3)
        b = static(replicas=3, routing=routing).run(reqs, 3)
        assert [
            (r.rid, r.start_s, r.finish_s, r.replica, r.batch_size)
            for r in a.metrics.completed
        ] == [
            (r.rid, r.start_s, r.finish_s, r.replica, r.batch_size)
            for r in b.metrics.completed
        ]

    def test_epoch_stepping_equals_one_shot(self):
        reqs = poisson_arrivals(100, 4, MIXED, seed=3)
        stepped = adaptive(replicas=2)
        stepped.ingest(reqs)
        for k in range(8):
            stepped.advance_to((k + 1) * 0.5)
        a = stepped.finish(4)
        b = adaptive(replicas=2).run(reqs, 4)
        assert [
            (r.rid, r.start_s, r.finish_s, r.replica)
            for r in a.metrics.completed
        ] == [
            (r.rid, r.start_s, r.finish_s, r.replica)
            for r in b.metrics.completed
        ]

    def test_summary_marks_adaptive(self):
        report = adaptive().run(poisson_arrivals(20, 1, ALEX, seed=0), 1)
        assert report.summary["engine"]["adaptive"] is True
        assert "fleet" in report.summary


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, True, 2.0])
    def test_replicas(self, bad):
        with pytest.raises(ConfigError):
            adaptive(replicas=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_finish_rejects_bad_duration(self, bad):
        eng = adaptive()
        eng.ingest(poisson_arrivals(20, 1, ALEX, seed=0))
        with pytest.raises(ConfigError, match=f"finite, got {bad!r}"):
            eng.finish(bad)

    def test_advance_backwards_rejected(self):
        eng = adaptive()
        eng.advance_to(2.0)
        with pytest.raises(ConfigError, match="already at"):
            eng.advance_to(1.0)

    def test_advance_to_nan_rejected(self):
        # every comparison with NaN is false: a NaN bound would run the
        # whole stream and leave the engine "already at" its last event
        eng = adaptive()
        eng.ingest(poisson_arrivals(50, 2, ALEX, seed=0))
        with pytest.raises(ConfigError, match="got nan"):
            eng.advance_to(math.nan)
        assert eng.offered == 0 and eng.now == 0.0
        eng.advance_to(1.0)

    def test_stale_ingest_rejected(self):
        eng = adaptive()
        eng.advance_to(5.0)
        with pytest.raises(ConfigError, match="already advanced"):
            eng.ingest(poisson_arrivals(20, 1, ALEX, seed=0))

    def test_drain_unknown_replica(self):
        with pytest.raises(ConfigError, match="unknown replica"):
            adaptive(replicas=2).drain_replica(7)

    def test_drain_last_active_refused(self):
        with pytest.raises(ConfigError, match="last active"):
            adaptive(replicas=1).drain_replica(0)

    def test_double_drain_refused(self):
        eng = adaptive(replicas=3)
        eng.drain_replica(2)
        with pytest.raises(ConfigError, match="already retired"):
            eng.drain_replica(2)

    def test_bad_slow_injection(self):
        eng = adaptive(replicas=1)
        with pytest.raises(ConfigError, match="slow factor"):
            eng.set_slow(0, 0.5, 0, 1)
        with pytest.raises(ConfigError, match="until > from"):
            eng.set_slow(0, 2.0, 3, 3)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_slow_and_degrade_factors_rejected(self, bad):
        # an infinite factor used to spin finish() forever; NaN was a no-op
        eng = adaptive(replicas=1)
        with pytest.raises(
            ConfigError, match=f"slow factor must be finite and >= 1, got {bad!r}"
        ):
            eng.set_slow(0, bad, 0, 1)
        with pytest.raises(
            ConfigError, match=f"degrade factor must be finite and >= 1, got {bad!r}"
        ):
            eng.mark_degraded(0, 1, 0, bad, 0.0)

    def test_set_batch_policy_type_checked(self):
        with pytest.raises(ConfigError, match="BatchPolicy"):
            adaptive().set_batch_policy({"max_batch": 4})


class TestFleetMutation:
    def test_add_replica_assigns_fresh_rids(self):
        eng = adaptive(replicas=2)
        assert eng.add_replica() == 2
        eng.drain_replica(2)
        # rid 2 is retired, new provisions never reuse it
        assert eng.add_replica() == 3
        assert [r.rid for r in eng.active_replicas()] == [0, 1, 3]

    def test_drained_replica_takes_no_new_work(self):
        reqs = poisson_arrivals(150, 2, ALEX, seed=5)
        eng = adaptive(replicas=2, routing="least-loaded")
        eng.ingest(reqs)
        eng.advance_to(1.0)
        eng.drain_replica(1)
        eng.advance_to(math.inf)
        late = [r for r in eng.metrics.completed if r.start_s > 1.0]
        assert late and all(r.replica == 0 for r in late)

    def test_added_replica_serves_after_join(self):
        reqs = poisson_arrivals(200, 2, ALEX, seed=5)
        eng = adaptive(replicas=1, routing="least-loaded")
        eng.ingest(reqs)
        eng.advance_to(1.0)
        rid = eng.add_replica()
        report = eng.finish(2)
        served = [r for r in report.metrics.completed if r.replica == rid]
        assert served and all(r.start_s >= 1.0 for r in served)

    def test_retune_applies_to_later_dispatches_only(self):
        reqs = poisson_arrivals(100, 2, ALEX, seed=1)
        eng = adaptive(batch_policy=BatchPolicy(max_batch=16, max_wait_ms=10))
        eng.ingest(reqs)
        eng.advance_to(1.0)
        eng.set_batch_policy(BatchPolicy(max_batch=1, max_wait_ms=0.0))
        eng.advance_to(math.inf)
        after = [r for r in eng.metrics.completed if r.start_s > 1.0]
        assert after and all(r.batch_size == 1 for r in after)
        assert any(r.batch_size > 1 for r in eng.metrics.completed)

    def test_fleet_events_logged(self):
        eng = adaptive(replicas=2)
        eng.add_replica()
        eng.drain_replica(0, reason="unhealthy")
        eng.set_batch_policy(BatchPolicy(max_batch=4, max_wait_ms=2.0))
        kinds = [event for _, event, _, _ in eng.fleet_events]
        assert kinds == ["add", "drain", "retune"]


class TestChipSeconds:
    def test_static_fleet_is_replicas_times_makespan(self):
        reqs = poisson_arrivals(50, 2, ALEX, seed=0)
        eng = adaptive(replicas=3)
        report = eng.run(reqs, 2)
        chip = report.summary["fleet"]["chip_seconds"]
        assert chip == pytest.approx(3 * report.summary["makespan_s"], rel=1e-6)

    def test_drain_releases_the_chip(self):
        eng = adaptive(replicas=2)
        eng.advance_to(4.0)
        eng.drain_replica(1)
        report = eng.finish(10)
        per = {r["rid"]: r for r in report.summary["per_replica"]}
        assert per[1]["retired_ms"] == pytest.approx(4000.0)
        assert report.summary["fleet"]["chip_seconds"] == pytest.approx(
            10.0 + 4.0, rel=1e-6
        )

    def test_drain_holds_chip_until_inflight_finishes(self):
        # vgg batches run for ~1.3 simulated seconds, so work is in flight
        vgg = [TenantSpec("vgg", "vgg")]
        reqs = poisson_arrivals(40, 1, vgg, seed=2)
        eng = adaptive(replicas=2, routing="least-loaded")
        eng.ingest(reqs)
        eng.advance_to(0.5)
        busy = next(r for r in eng.replicas if r.rid == 1)
        assert busy.free_at > 0.5  # in-flight batch
        retired = eng.drain_replica(1)
        assert retired == pytest.approx(busy.free_at)

    def test_crash_after_the_makespan_is_moot(self):
        reqs = poisson_arrivals(50, 2, ALEX, seed=0)
        healthy = adaptive(replicas=2).run(reqs, 2)
        eng = adaptive(replicas=2)
        eng.schedule_crash(1, 100.0)
        crashed = eng.run(reqs, 2)
        # no retirement at 100 s, no crash event: chip-seconds stay 4.04
        assert crashed.summary["fleet"]["chip_seconds"] == 4.043069
        assert crashed.summary["utilization"] == 0.317366
        assert crashed.to_json() == healthy.to_json()

    def test_crash_inside_the_makespan_still_retires(self):
        reqs = poisson_arrivals(50, 2, ALEX, seed=0)
        eng = adaptive(replicas=2)
        eng.schedule_crash(1, 1.99)
        events = eng.run(reqs, 2).summary["fleet"]["events"]
        assert [(e["event"], e["replica"]) for e in events] == [("crash", 1)]

    def test_only_replica_crashing_as_it_joins(self):
        # the fleet peaks at zero replicas, so utilization must not divide by it
        eng = adaptive(replicas=1)
        eng.schedule_crash(0, 0.0)
        summary = eng.run(poisson_arrivals(20, 1, ALEX, seed=0), 1).summary
        assert summary["replicas"] == 0
        assert summary["utilization"] == 0.0
        assert summary["failed"] == summary["offered"] > 0

    def test_stranded_work_fails_as_no_replicas(self):
        # the failover runs' name for requests no replica is left to serve
        eng = adaptive(replicas=2)
        eng.schedule_crash(0, 0.3)
        eng.schedule_crash(1, 0.5)
        summary = eng.run(poisson_arrivals(50, 1, ALEX, seed=0), 1).summary
        assert summary["failed"] > 0
        assert summary["failed_by_reason"] == {"no_replicas": summary["failed"]}

    def test_peak_fleet_size_orders_swap_correctly(self):
        # drain + add at the same instant must not read as peak+1
        rs = [
            AdaptiveReplica(0, added_s=0.0),
            AdaptiveReplica(1, added_s=0.0, retired_s=5.0),
            AdaptiveReplica(2, added_s=5.0),
        ]
        assert _peak_fleet_size(rs) == 2

    def test_slow_window_stretches_service(self):
        reqs = poisson_arrivals(50, 1, ALEX, seed=0)
        fast = adaptive(replicas=1)
        fast.ingest(reqs)
        slow = adaptive(replicas=1)
        slow.set_slow(0, 4.0, 0.0, 10.0)
        slow.ingest(reqs)
        a = fast.finish(1)
        b = slow.finish(1)
        assert b.summary["latency_ms"]["p95"] > a.summary["latency_ms"]["p95"]
