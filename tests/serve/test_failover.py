"""Failover runs: fault injection, detection, retries, hedging, draining.

The load-bearing invariant throughout: every offered request terminates
exactly once — completed, shed, or failed with a reason.  No silent drops,
under any fault schedule.
"""

from __future__ import annotations

import math

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.serve import engine as engine_module
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import AdaptiveServingEngine, ServingEngine
from repro.serve.failover import (
    FAILED_NO_REPLICAS,
    FAILED_RETRIES,
    FailoverPolicy,
    ReplicaFault,
    backoff_s,
    detection_time,
)
from repro.serve.workload import Request, TenantSpec, poisson_arrivals

ALEX = [TenantSpec("alexnet", "alexnet")]

#: one shared coster so the expensive plans derive once per test session
_COSTER = BatchCoster(CONFIG_16_16)


def engine(**kwargs):
    kwargs.setdefault("coster", _COSTER)
    kwargs.setdefault("failover_policy", FailoverPolicy())
    return ServingEngine(CONFIG_16_16, **kwargs)


def requests(rate=100, duration=3, seed=0, tenants=ALEX):
    return poisson_arrivals(rate, duration, tenants, seed=seed)


def terminated(summary):
    return summary["completed"] + summary["shed"] + summary["failed"]


class TestValidation:
    def test_fault_replica_out_of_range(self):
        with pytest.raises(ConfigError, match="replica 2"):
            engine(replicas=2, faults=[ReplicaFault("crash", 2, 1.0)])

    def test_bad_fault_kind(self):
        with pytest.raises(ConfigError, match="fault kind"):
            ReplicaFault("explode", 0, 1.0)

    def test_slow_fault_needs_factor_above_one(self):
        with pytest.raises(ConfigError, match="factor"):
            ReplicaFault("slow", 0, 1.0, factor=0.5)

    def test_service_window_ordering(self):
        with pytest.raises(ConfigError, match="end > start"):
            engine(service_windows=[(2.0, 1.0, 2.0)])

    def test_service_window_multiplier(self):
        with pytest.raises(ConfigError, match="multiplier"):
            engine(service_windows=[(1.0, 2.0, 0.5)])

    def test_slow_fault_and_service_window_need_finite_factors(self):
        # an infinite multiplier used to fail live replicas' requests as
        # no_replicas, and an infinite slow fault hung the adaptive engine
        with pytest.raises(
            ConfigError, match="slow factor must be finite and >= 1, got inf"
        ):
            ReplicaFault("slow", 0, 0.2, factor=math.inf, duration_s=0.5)
        with pytest.raises(
            ConfigError, match="service multiplier must be finite and >= 1, got inf"
        ):
            engine(service_windows=[(0.2, 0.5, math.inf)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_run_rejects_bad_duration(self, bad):
        with pytest.raises(ConfigError, match=f"finite, got {bad!r}"):
            engine().run(requests(), bad)


class TestFailoverPolicy:
    def test_backoff_grows_and_caps(self):
        # 5 ms base, 80 ms cap
        assert backoff_s(1) == pytest.approx(0.005)
        assert backoff_s(2) == pytest.approx(0.010)
        assert backoff_s(5) == pytest.approx(0.080)  # capped
        assert backoff_s(10) == pytest.approx(0.080)


class TestHealthChecker:
    def test_detection_is_first_probe_after_crash(self):
        # 50 ms probe period
        assert detection_time(0.12) == pytest.approx(0.15)
        # a crash exactly on a probe tick is noticed at the *next* tick
        assert detection_time(0.10) == pytest.approx(0.15)

    def test_timeline_records_transitions(self):
        summary = engine(
            replicas=2, faults=[ReplicaFault("crash", 0, 1.0)]
        ).run(requests(), 3).summary
        # one entry per change: the crash is marked down once, at the tick
        assert summary["failover"]["health_timeline"] == [
            {"time_ms": 1050.0, "replica": 0, "status": "down"}
        ]
        assert [d["status"] for d in summary["per_replica"]] == ["down", "up"]

    def test_slow_classification(self):
        # x2 service from 0.5 s to 1 s: slow at 1.5x expected, then up again
        summary = engine(
            faults=[ReplicaFault("slow", 0, 0.5, factor=2.0, duration_s=0.5)]
        ).run(requests(), 3).summary
        timeline = summary["failover"]["health_timeline"]
        assert [e["status"] for e in timeline] == ["slow", "up"]
        assert 500.0 < timeline[0]["time_ms"] < 1000.0 < timeline[1]["time_ms"]


class TestHealthyBaseline:
    def test_no_faults_no_failures(self):
        report = engine(replicas=2).run(requests(), 3)
        s = report.summary
        assert s["failed"] == 0
        assert terminated(s) == s["offered"]
        assert s["failover"]["retries"] == 0

    def test_deterministic(self):
        def run():
            return engine(
                replicas=2,
                faults=[ReplicaFault("crash", 0, 1.0)],
            ).run(requests(), 3).to_json()

        assert run() == run()


class TestFailStop:
    def test_crash_terminates_everything(self):
        report = engine(
            replicas=2, faults=[ReplicaFault("crash", 0, 1.0)]
        ).run(requests(), 3)
        s = report.summary
        assert terminated(s) == s["offered"]
        assert set(s["failed_by_reason"]) <= {FAILED_RETRIES, FAILED_NO_REPLICAS}

    def test_crashed_replica_marked_down(self):
        report = engine(
            replicas=2, faults=[ReplicaFault("crash", 0, 1.0)]
        ).run(requests(), 3)
        detail = {d["rid"]: d for d in report.summary["per_replica"]}
        assert detail[0]["status"] == "down"
        assert detail[0]["crashed_ms"] == pytest.approx(1000.0)
        assert detail[1]["status"] != "down"

    def test_down_transition_at_detection_tick(self):
        report = engine(
            replicas=2, faults=[ReplicaFault("crash", 0, 1.02)]
        ).run(requests(), 3)
        downs = [
            e
            for e in report.summary["failover"]["health_timeline"]
            if e["status"] == "down"
        ]
        assert downs[0]["time_ms"] == pytest.approx(1050.0)

    def test_survivor_serves_the_tail(self):
        report = engine(
            replicas=2, faults=[ReplicaFault("crash", 0, 1.0)]
        ).run(requests(), 3)
        by_replica = {d["rid"]: d["completed"] for d in report.summary["per_replica"]}
        # replica 1 keeps completing after the crash; replica 0 stops
        assert by_replica[1] > by_replica[0]

    def test_zero_retry_budget_fails_lost_batch(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_RETRIES", 0)
        report = engine(
            replicas=2, faults=[ReplicaFault("crash", 0, 1.0)]
        ).run(requests(), 3)
        s = report.summary
        assert terminated(s) == s["offered"]
        if s["failed"]:
            assert FAILED_RETRIES in s["failed_by_reason"]
        assert s["failover"]["retries"] == 0

    def test_crashed_replica_is_charged_only_the_service_it_ran(self):
        # replica 0 takes the lone request at 0 and crashes 8.99 ms into
        # its ~18 ms batch: it ran 8.99 ms and completed nothing
        report = engine(
            replicas=2,
            routing="least-loaded",
            batch_policy=BatchPolicy(max_batch=1, max_wait_ms=0.0),
            faults=[ReplicaFault("crash", 0, 0.00899)],
        ).run([Request(0, "alexnet", "alexnet", 0.0, 1.0)], 1.0)
        crashed = report.summary["per_replica"][0]
        assert crashed["completed"] == 0
        assert (crashed["busy_ms"], crashed["utilization"]) == (8.99, 0.00899)

    def test_crash_of_a_drained_replica_is_still_detected(self):
        eng = AdaptiveServingEngine(CONFIG_16_16, replicas=2, coster=_COSTER)
        eng.arm_failover([ReplicaFault("crash", 1, 1.0)])
        eng.ingest(requests())
        eng.advance_to(0.5)
        eng.drain_replica(1)
        s = eng.finish(3).summary
        assert terminated(s) == s["offered"]
        assert s["failover"]["health_timeline"] == [
            {"time_ms": 1050.0, "replica": 1, "status": "down"}
        ]

    def test_all_replicas_dead_drains_to_failed(self):
        report = engine(
            replicas=2,
            faults=[
                ReplicaFault("crash", 0, 0.5),
                ReplicaFault("crash", 1, 0.5),
            ],
        ).run(requests(rate=50, duration=2), 2)
        s = report.summary
        assert terminated(s) == s["offered"]
        assert s["failed"] > 0
        assert FAILED_NO_REPLICAS in s["failed_by_reason"]
        # nothing completes after both crashes are detected
        assert all(r.finish_s < 1.0 for r in report.metrics.completed)


class TestFailSlow:
    def test_slow_window_stretches_tail_latency(self):
        slow = engine(
            replicas=2,
            routing="least-loaded",
            faults=[ReplicaFault("slow", 0, 0.5, factor=6.0, duration_s=1.5)],
        ).run(requests(), 3)
        healthy = engine(replicas=2, routing="least-loaded").run(requests(), 3)
        assert (
            slow.summary["latency_ms"]["p99"]
            > healthy.summary["latency_ms"]["p99"]
        )
        assert slow.summary["failed"] == 0

    def test_slow_replica_flagged_in_timeline(self):
        report = engine(
            replicas=2,
            routing="least-loaded",
            faults=[ReplicaFault("slow", 0, 0.5, factor=6.0, duration_s=1.0)],
        ).run(requests(), 3)
        statuses = {
            e["status"] for e in report.summary["failover"]["health_timeline"]
        }
        assert "slow" in statuses


    def test_slow_faults_are_armed_as_windows_up_front(self):
        eng = engine(
            replicas=2,
            faults=[
                ReplicaFault("slow", 1, 0.5, factor=3.0, duration_s=1.0),
                ReplicaFault("crash", 0, 1.0),
            ],
        )
        # the window is in place before the run; only the crash is an event
        assert eng.replicas[1].slow_windows == [(0.5, 1.5, 3.0)]
        assert eng.replicas[0].slow_windows == []
        assert [event[1:3] for event in eng._faults] == [
            (engine_module._FAULT, 0)
        ]

    def test_nested_slow_windows_pay_the_worst_factor(self):
        # a [1.5, 2) x4 window inside a [1, 3) x2 one must not cut the
        # outer window short: the adaptive engine's rule, on one schedule
        faults = [
            ReplicaFault("slow", 0, 1.0, factor=2.0, duration_s=2.0),
            ReplicaFault("slow", 0, 1.5, factor=4.0, duration_s=0.5),
        ]
        arrivals = (0.5, 1.25, 1.75, 2.5, 3.5)
        reqs = [
            Request(rid, "alexnet", "alexnet", t, t + 1.0)
            for rid, t in enumerate(arrivals)
        ]
        report = engine(faults=faults, batch_policy=BatchPolicy(max_batch=1)).run(
            reqs, 4.0
        )
        log = report.metrics
        assert log.batch_starts == list(arrivals)
        base = _COSTER.batch_seconds("alexnet", 1)
        factors = [
            (finish - start) / base
            for start, finish in zip(log.batch_starts, log.batch_finishes)
        ]
        assert factors == pytest.approx([1.0, 2.0, 4.0, 2.0, 1.0])


class TestHedging:
    def _run(self, hedge):
        return engine(
            replicas=3,
            routing="least-loaded",
            faults=[ReplicaFault("slow", 0, 0.5, factor=8.0, duration_s=2.0)],
            failover_policy=FailoverPolicy(hedge=hedge),
        ).run(requests(rate=120, duration=3), 3)

    def test_hedging_fires_and_charges_waste(self):
        hedged = self._run(True)
        failover = hedged.summary["failover"]
        assert failover["hedges"] > 0
        assert failover["hedge_wasted_ms"] >= 0.0

    def test_hedging_does_not_lose_requests(self):
        hedged = self._run(True)
        s = hedged.summary
        assert terminated(s) == s["offered"]
        # hedged batches complete once, not twice
        assert s["completed"] == len({r.rid for r in hedged.metrics.completed})

    def test_hedging_improves_tail_under_gray_failure(self):
        hedged = self._run(True)
        unhedged = self._run(False)
        assert (
            hedged.summary["latency_ms"]["p95"]
            <= unhedged.summary["latency_ms"]["p95"]
        )

    @staticmethod
    def _hedged_crash(*crashes):
        # replica 0 runs x4 slow, so the request at 89.9 ms is hedged from
        # it onto replica 1; then one copy's replica crashes (or both do)
        reqs = [
            Request(rid, "alexnet", "alexnet", t, t + 1.0)
            for rid, t in enumerate((0.0, 0.001, 0.0899))
        ]
        report = engine(
            replicas=2,
            batch_policy=BatchPolicy(max_batch=1, max_wait_ms=0),
            faults=[ReplicaFault("slow", 0, 0.0, factor=4.0), *crashes],
            failover_policy=FailoverPolicy(hedge=True),
        ).run(reqs, 0.1)
        hedged = next((r for r in report.metrics.completed if r.rid == 2), None)
        return report.summary["failover"], hedged

    def test_slow_copy_completes_when_the_twin_replica_crashes(self):
        failover, hedged = self._hedged_crash(ReplicaFault("crash", 1, 0.0917))
        # no retry: the copy on replica 0 finishes at 161.8 ms, and the
        # twin's 1.8 ms run up to its crash is the waste
        assert (hedged.replica, hedged.start_s) == (0, 0.0899)
        assert hedged.finish_s == pytest.approx(0.161825, abs=1e-6)
        assert (failover["retries"], failover["hedges"]) == (0, 1)
        assert failover["hedge_wasted_ms"] == pytest.approx(1.8)

    def test_twin_completes_when_the_slow_replica_crashes(self):
        failover, hedged = self._hedged_crash(ReplicaFault("crash", 0, 0.095))
        # no retry: the twin on replica 1 finishes at 107.9 ms, and only
        # replica 0's 5.1 ms run up to its crash is the waste
        assert (hedged.replica, hedged.start_s) == (1, 0.0899)
        assert hedged.finish_s == pytest.approx(0.107881, abs=1e-6)
        assert (failover["retries"], failover["hedges"]) == (0, 1)
        assert failover["hedge_wasted_ms"] == pytest.approx(5.1)

    def test_slow_copy_crashing_before_its_twin_won_is_wasted(self):
        failover, hedged = self._hedged_crash(ReplicaFault("crash", 0, 0.105))
        # replica 0 crashes at 105 ms, the twin on replica 1 completes the
        # batch at 107.9 ms and the probe notices the crash at 150 ms: the
        # crashed copy's 15.1 ms run was wasted
        assert (hedged.replica, hedged.start_s) == (1, 0.0899)
        assert (failover["retries"], failover["hedges"]) == (0, 1)
        assert failover["hedge_wasted_ms"] == pytest.approx(15.1)

    def test_batch_whose_every_copy_crashed_wastes_nothing(self):
        failover, hedged = self._hedged_crash(
            ReplicaFault("crash", 0, 0.095), ReplicaFault("crash", 1, 0.102)
        )
        # the 100 ms probe notices replica 0's crash while the twin still
        # runs; then replica 1 crashes too, so no copy completes the batch:
        # it retries, and no copy's run is charged as waste
        assert hedged is None
        assert (failover["retries"], failover["hedges"]) == (1, 1)
        assert failover["hedge_wasted_ms"] == 0.0

    def test_slow_copy_crashing_after_its_twin_won_is_wasted(self):
        failover, hedged = self._hedged_crash(ReplicaFault("crash", 0, 0.120))
        # the twin on replica 1 completed the batch at 107.9 ms; the copy
        # on replica 0 still ran until its crash, 30.1 ms after dispatch
        assert (hedged.replica, hedged.start_s) == (1, 0.0899)
        assert (failover["retries"], failover["hedges"]) == (0, 1)
        assert failover["hedge_wasted_ms"] == pytest.approx(30.1)


class TestServiceWindows:
    def test_window_multiplies_service_time(self):
        windowed = engine(
            replicas=2, service_windows=[(0.0, 10.0, 3.0)]
        ).run(requests(rate=40, duration=2), 2)
        plain = engine(replicas=2).run(requests(rate=40, duration=2), 2)
        assert (
            windowed.summary["latency_ms"]["p50"]
            > plain.summary["latency_ms"]["p50"]
        )

    def test_windows_reported_in_summary(self):
        report = engine(
            replicas=1, service_windows=[(1.0, 2.0, 2.0)]
        ).run(requests(rate=20, duration=1), 1)
        windows = report.summary["failover"]["service_windows"]
        assert windows == [
            {"start_ms": 1000.0, "end_ms": 2000.0, "multiplier": 2.0}
        ]
