"""Event-loop semantics: determinism, conservation, batching and routing."""

from __future__ import annotations

import math

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import AdaptiveServingEngine, ServingEngine
from repro.serve.failover import ReplicaFault
from repro.serve.queue import QueuePolicy
from repro.serve.workload import TenantSpec, poisson_arrivals

ALEX = [TenantSpec("alexnet", "alexnet")]
MIXED = [
    TenantSpec("alexnet", "alexnet", weight=2.0),
    TenantSpec("nin", "nin", weight=1.0, slo_ms=500.0),
]

#: one shared coster so the expensive plans derive once per test session
_COSTER = BatchCoster(CONFIG_16_16)


def engine(**kwargs):
    kwargs.setdefault("coster", _COSTER)
    return ServingEngine(CONFIG_16_16, **kwargs)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, True, 2.0])
    def test_replicas(self, bad):
        with pytest.raises(ConfigError):
            engine(replicas=bad)

    def test_routing(self):
        with pytest.raises(ConfigError, match="routing"):
            engine(routing="random")

    def test_duration(self):
        with pytest.raises(ConfigError, match="duration"):
            engine().run([], 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_duration(self, bad):
        reqs = poisson_arrivals(20, 1, ALEX, seed=0)
        with pytest.raises(ConfigError, match=f"finite, got {bad!r}"):
            engine().run(reqs, bad)


class TestDeterminism:
    def test_two_runs_byte_identical(self):
        def run():
            reqs = poisson_arrivals(80, 4, MIXED, seed=0)
            return engine(
                batch_policy=BatchPolicy(max_batch=8, max_wait_ms=10)
            ).run(reqs, 4, extra_meta={"seed": 0}).to_json()

        assert run() == run()

    def test_seed_changes_output(self):
        def run(seed):
            reqs = poisson_arrivals(80, 4, ALEX, seed=seed)
            return engine().run(reqs, 4).to_json()

        assert run(0) != run(1)


class TestConservation:
    def test_every_request_completed_or_shed(self):
        reqs = poisson_arrivals(120, 5, MIXED, seed=1)
        report = engine(
            batch_policy=BatchPolicy(max_batch=8, max_wait_ms=10),
            queue_policy=QueuePolicy(max_depth=32),
        ).run(reqs, 5)
        s = report.summary
        assert s["offered"] == len(reqs)
        assert s["completed"] + s["shed"] == len(reqs)
        # completion ids are unique and drawn from the workload
        rids = [r.rid for r in report.metrics.completed]
        assert len(rids) == len(set(rids))
        assert set(rids) <= {r.rid for r in reqs}

    def test_queue_fully_drains(self):
        reqs = poisson_arrivals(150, 3, ALEX, seed=2)
        report = engine().run(reqs, 3)
        s = report.summary
        assert s["completed"] + s["shed"] == s["offered"]
        # drain pushes the makespan past the offered-load window
        assert s["makespan_s"] >= 3


class TestBatching:
    def test_lone_request_waits_out_the_timer(self):
        reqs = poisson_arrivals(1000, 0.002, ALEX, seed=0)[:1]
        report = engine(
            batch_policy=BatchPolicy(max_batch=32, max_wait_ms=20)
        ).run(reqs, 0.002)
        (record,) = report.metrics.completed
        assert record.start_s == pytest.approx(record.arrival_s + 0.020)
        assert record.batch_size == 1

    def test_batches_never_mix_networks(self):
        reqs = poisson_arrivals(150, 4, MIXED, seed=3)
        report = engine(
            batch_policy=BatchPolicy(max_batch=8, max_wait_ms=15)
        ).run(reqs, 4)
        by_batch = {}
        for r in report.metrics.completed:
            by_batch.setdefault((r.replica, r.start_s), set()).add(r.network)
        assert all(len(nets) == 1 for nets in by_batch.values())

    def test_max_batch_respected(self):
        reqs = poisson_arrivals(200, 3, ALEX, seed=4)
        report = engine(
            batch_policy=BatchPolicy(max_batch=8, max_wait_ms=10)
        ).run(reqs, 3)
        assert max(report.metrics.batch_sizes) <= 8

    def test_dynamic_batching_beats_batch1_at_saturating_load(self):
        """The acceptance behavior: AlexNet at 100 req/s (batch-1 capacity
        is ~56 req/s), dynamic batching must win on p95 latency."""
        reqs = poisson_arrivals(100, 5, ALEX, seed=0)
        dyn = engine(
            batch_policy=BatchPolicy(max_batch=16, max_wait_ms=10)
        ).run(reqs, 5)
        b1 = engine(batch_policy=BatchPolicy(max_batch=1)).run(reqs, 5)
        assert (
            dyn.summary["latency_ms"]["p95"] < 0.5 * b1.summary["latency_ms"]["p95"]
        )
        assert dyn.summary["goodput_rps"] > b1.summary["goodput_rps"]

    def test_backlog_grows_batches(self):
        """Under saturation the dispatcher fuses the backlog into batches."""
        reqs = poisson_arrivals(150, 3, ALEX, seed=5)
        report = engine(
            batch_policy=BatchPolicy(max_batch=16, max_wait_ms=10)
        ).run(reqs, 3)
        assert report.summary["mean_batch_size"] > 1.5


class TestReplicasAndRouting:
    def test_second_replica_raises_throughput(self):
        reqs = poisson_arrivals(100, 4, ALEX, seed=6)
        one = engine(batch_policy=BatchPolicy(max_batch=1)).run(reqs, 4)
        two = engine(batch_policy=BatchPolicy(max_batch=1), replicas=2).run(reqs, 4)
        assert two.summary["latency_ms"]["p95"] < one.summary["latency_ms"]["p95"]
        assert two.summary["makespan_s"] < one.summary["makespan_s"]

    def test_least_loaded_no_worse_than_round_robin(self):
        reqs = poisson_arrivals(150, 4, MIXED, seed=7)
        policy = BatchPolicy(max_batch=8, max_wait_ms=10)
        rr = engine(batch_policy=policy, replicas=3, routing="round-robin").run(reqs, 4)
        ll = engine(batch_policy=policy, replicas=3, routing="least-loaded").run(reqs, 4)
        assert (
            ll.summary["latency_ms"]["mean"]
            <= rr.summary["latency_ms"]["mean"] * 1.001
        )

    def test_least_loaded_tie_breaks_by_replica_index(self):
        """Two equally-loaded replicas must always resolve the same way."""
        from repro.serve.engine import AdaptiveServingEngine

        def fleet(n):
            return AdaptiveServingEngine(
                CONFIG_16_16, replicas=n, routing="least-loaded", coster=_COSTER
            )

        idle = fleet(2)
        assert idle._pick().rid == 0
        # equal *nonzero* load ties the same way
        for r in idle.replicas:
            r.free_at = 2.5
        assert idle._pick().rid == 0
        # ... and the tie-break must not depend on how the fleet was built:
        # a replica that joins later loses ties to every lower rid
        grown = fleet(1)
        grown.add_replica()
        assert grown._pick().rid == 0
        swapped = fleet(3)
        swapped.drain_replica(0)
        assert swapped.add_replica() == 3
        assert swapped._pick().rid == 1

    def test_least_loaded_routing_is_reproducible(self):
        """Regression: repeated least-loaded runs place every batch on the
        same replica, even when several replicas free up simultaneously."""
        reqs = poisson_arrivals(120, 2, ALEX, seed=9)

        def placements():
            report = engine(
                batch_policy=BatchPolicy(max_batch=4, max_wait_ms=5),
                replicas=2,
                routing="least-loaded",
            ).run(list(reqs), 2)
            return [
                (r.rid, r.replica)
                for r in sorted(report.metrics.completed, key=lambda r: r.rid)
            ]

        first = placements()
        assert first == placements()
        # the very first batch lands on replica 0 (both idle -> lowest rid)
        assert first[0][1] == 0

    def test_replica_bookkeeping(self):
        reqs = poisson_arrivals(80, 3, ALEX, seed=8)
        report = engine(replicas=2, routing="least-loaded").run(reqs, 3)
        assert len(report.replicas) == 2
        assert sum(r.batches for r in report.replicas) == report.summary["batches"]
        assert 0 < report.summary["utilization"] <= 1.0


class TestShedding:
    def test_tiny_queue_sheds_under_overload(self):
        reqs = poisson_arrivals(200, 3, ALEX, seed=9)
        report = engine(
            batch_policy=BatchPolicy(max_batch=1),
            queue_policy=QueuePolicy(max_depth=4),
        ).run(reqs, 3)
        s = report.summary
        assert s["shed"] > 0
        assert s["shed_by_reason"]["queue_full"] == s["shed"]
        # the tiny queue also bounds latency: nothing waits behind >4 batches
        assert s["latency_ms"]["max"] < 5 * 18 + 50

    def test_max_age_sheds_and_bounds_wait(self):
        reqs = poisson_arrivals(200, 3, ALEX, seed=10)
        report = engine(
            batch_policy=BatchPolicy(max_batch=1),
            queue_policy=QueuePolicy(max_depth=1024, max_age_s=0.1),
        ).run(reqs, 3)
        s = report.summary
        assert s["shed_by_reason"].get("max_age", 0) > 0
        assert s["queue_wait_ms"]["max"] <= 100 + 1e-6

    def test_edf_with_shed_expired_raises_goodput_under_overload(self):
        tenants = [
            TenantSpec("tight", "alexnet", slo_ms=60.0),
            TenantSpec("loose", "alexnet", slo_ms=2000.0),
        ]
        reqs = poisson_arrivals(120, 4, tenants, seed=11)
        fifo = engine(
            batch_policy=BatchPolicy(max_batch=4, max_wait_ms=5),
            queue_policy=QueuePolicy(order="fifo"),
        ).run(reqs, 4)
        edf = engine(
            batch_policy=BatchPolicy(max_batch=4, max_wait_ms=5),
            queue_policy=QueuePolicy(order="edf", shed_expired=True),
        ).run(reqs, 4)
        assert edf.summary["deadline_met"] >= fifo.summary["deadline_met"]


class TestPerReplicaStats:
    def test_details_cover_every_replica(self):
        reqs = poisson_arrivals(80, 3, ALEX, seed=3)
        report = engine(replicas=3, routing="least-loaded").run(reqs, 3)
        per_replica = report.summary["per_replica"]
        assert [d["rid"] for d in per_replica] == [0, 1, 2]

    def test_completed_counts_sum_to_total(self):
        reqs = poisson_arrivals(80, 3, ALEX, seed=3)
        report = engine(replicas=2).run(reqs, 3)
        s = report.summary
        assert sum(d["completed"] for d in s["per_replica"]) == s["completed"]

    def test_busy_time_sums_to_utilization_numerator(self):
        reqs = poisson_arrivals(60, 2, ALEX, seed=5)
        report = engine(replicas=2).run(reqs, 2)
        s = report.summary
        busy_ms = sum(d["busy_ms"] for d in s["per_replica"])
        expected = busy_ms / 1e3 / (2 * s["makespan_s"])
        assert s["utilization"] == pytest.approx(expected, abs=1e-5)

    def test_batches_and_utilization_consistent(self):
        reqs = poisson_arrivals(60, 2, ALEX, seed=5)
        report = engine(replicas=2).run(reqs, 2)
        for d in report.summary["per_replica"]:
            assert d["batches"] >= 0
            assert 0.0 <= d["utilization"] <= 1.0
            if d["batches"] == 0:
                assert d["completed"] == 0 and d["busy_ms"] == 0.0


class TestOneRun:
    """A ServingEngine is the adaptive engine it serves on, run once."""

    @pytest.mark.parametrize("faults", [(), (ReplicaFault("crash", 1, 0.5),)])
    def test_second_run_is_refused(self, faults):
        reqs = poisson_arrivals(40, 1, ALEX, seed=0)
        eng = engine(replicas=2, faults=faults)
        eng.run(reqs, 1)
        # a second run would continue the first: its clock, queue and log
        with pytest.raises(ConfigError, match="serves one run"):
            eng.run(reqs, 1)

    def test_report_replicas_are_the_engines_own(self):
        eng = engine(replicas=2, routing="least-loaded")
        report = eng.run(poisson_arrivals(40, 1, ALEX, seed=0), 1)
        assert len(report.replicas) == 2
        assert all(a is b for a, b in zip(report.replicas, eng.replicas))
        assert report.metrics is eng.metrics

    def test_building_and_running_builds_no_other_engine(self, monkeypatch):
        built = []
        init = AdaptiveServingEngine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AdaptiveServingEngine, "__init__", counting_init)
        eng = engine(replicas=2, faults=[ReplicaFault("slow", 0, 0.2, 2.0)])
        eng.run(poisson_arrivals(40, 1, ALEX, seed=0), 1)
        assert isinstance(eng, AdaptiveServingEngine)
        assert built == [eng]
