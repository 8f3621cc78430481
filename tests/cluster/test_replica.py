"""PipelinedReplica adapter tests: sharded deployments behind the serving
engine's coster interface."""

import pytest

from repro.cluster import PipelinedReplica
from repro.errors import ConfigError
from repro.serve import BatchPolicy, ServingEngine, parse_mix, poisson_arrivals


class TestCosterInterface:
    def test_pipeline_batch_latency(self, cfg16):
        replica = PipelinedReplica(cfg16, n_chips=2)
        plan = replica.pipeline_plan("alexnet")
        assert replica.batch_seconds("alexnet", 1) == pytest.approx(
            plan.fill_latency_s
        )
        assert replica.batch_seconds("alexnet", 8) == pytest.approx(
            plan.fill_latency_s + 7 * plan.bottleneck_s
        )

    def test_data_parallel_batch_latency(self, cfg16):
        replica = PipelinedReplica(cfg16, n_chips=2, strategy="data-parallel")
        plan = replica.data_parallel_plan("alexnet", 4)
        assert replica.batch_seconds("alexnet", 4) == pytest.approx(plan.step_s)

    def test_plans_are_memoized(self, cfg16):
        replica = PipelinedReplica(cfg16, n_chips=2)
        assert replica.pipeline_plan("alexnet") is replica.pipeline_plan("alexnet")
        dp = PipelinedReplica(cfg16, n_chips=2, strategy="data-parallel")
        assert dp.data_parallel_plan("alexnet", 4) is dp.data_parallel_plan(
            "alexnet", 4
        )

    def test_capacity_helpers(self, cfg16):
        replica = PipelinedReplica(cfg16, n_chips=2)
        b = 8
        assert replica.image_seconds("alexnet", b) == pytest.approx(
            replica.batch_seconds("alexnet", b) / b
        )
        assert replica.capacity_rps("alexnet", b) == pytest.approx(
            1.0 / replica.image_seconds("alexnet", b)
        )

    def test_describe_names_deployment(self, cfg16):
        text = PipelinedReplica(cfg16, 4, strategy="data-parallel").describe()
        assert "data-parallel" in text and "x4" in text

    def test_validation(self, cfg16):
        with pytest.raises(ConfigError, match="strategy"):
            PipelinedReplica(cfg16, 2, strategy="magic")
        with pytest.raises(ConfigError, match="positive"):
            PipelinedReplica(cfg16, 0)
        with pytest.raises(ConfigError, match="int"):
            PipelinedReplica(cfg16, True)


class TestServingIntegration:
    def _workload(self, rate=40.0, duration=2.0):
        tenants = parse_mix("alexnet")
        return poisson_arrivals(rate, duration, tenants, seed=0), duration

    def test_engine_routes_batches_onto_sharded_deployment(self, cfg16):
        requests, duration = self._workload()
        engine = ServingEngine(
            cfg16,
            batch_policy=BatchPolicy(max_batch=8, max_wait_ms=5.0),
            coster=PipelinedReplica(cfg16, n_chips=2),
        )
        report = engine.run(requests, duration)
        assert report.summary["completed"] + report.summary["shed"] == (
            report.summary["offered"]
        )
        assert report.summary["completed"] > 0

    def test_sharded_run_is_deterministic(self, cfg16):
        requests, duration = self._workload()
        runs = [
            ServingEngine(
                cfg16, coster=PipelinedReplica(cfg16, n_chips=2)
            ).run(list(requests), duration).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
