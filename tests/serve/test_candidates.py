"""The shared candidate-evaluation path behind the capacity planner."""

from __future__ import annotations

import pytest

from repro.arch import CONFIG_16_16, CONFIG_32_32
from repro.errors import ConfigError
from repro.serve import (
    BatchCoster,
    ServingEngine,
    build_replica_set,
    evaluate_candidate,
    rank_candidates,
)
from repro.serve.failover import ReplicaFault
from repro.serve.workload import TenantSpec, poisson_arrivals

TENANTS = [TenantSpec("t", "nin", slo_ms=200.0)]
REQUESTS = poisson_arrivals(40.0, 2.0, TENANTS, seed=5)


class TestBuildReplicaSet:
    def test_flattens_groups_in_order_with_chip_labels(self):
        lead, costers, chip_map = build_replica_set(
            [(CONFIG_32_32, 1), (CONFIG_16_16, 2)]
        )
        assert lead is CONFIG_32_32
        assert len(costers) == 3
        assert chip_map == {
            0: "32-32 g0-0",
            1: "16-16 g1-0",
            2: "16-16 g1-1",
        }

    def test_identical_configs_share_one_memoized_coster(self):
        _, costers, _ = build_replica_set([(CONFIG_16_16, 2), (CONFIG_16_16, 1)])
        assert costers[0] is costers[1] is costers[2]

    def test_custom_coster_passes_through(self):
        shard = BatchCoster(CONFIG_16_16)
        _, costers, _ = build_replica_set([(CONFIG_16_16, 2, shard)])
        assert costers == [shard, shard]

    def test_validation_names_the_candidate_and_group(self):
        with pytest.raises(ConfigError, match="no chip groups"):
            build_replica_set([], candidate="empty")
        for count in (0, -1, True, 2.0):
            with pytest.raises(ConfigError, match="count must be"):
                build_replica_set([(CONFIG_16_16, count)], candidate="bad-count")
        with pytest.raises(ConfigError, match="group 1"):
            build_replica_set(
                [(CONFIG_16_16, 1), (CONFIG_16_16, 1, None, "extra")],
                candidate="bad",
            )


class TestEvaluateCandidate:
    def test_matches_a_hand_built_serving_engine(self):
        summary = evaluate_candidate([(CONFIG_16_16, 2)], REQUESTS, 2.0)
        engine = ServingEngine(
            CONFIG_16_16,
            replicas=2,
            routing="least-loaded",
            chip_map={0: "16-16 g0-0", 1: "16-16 g0-1"},
        )
        assert summary == engine.run(REQUESTS, 2.0).summary
        assert set(summary["per_chip"]) == {"16-16 g0-0", "16-16 g0-1"}

    def test_faulted_path_matches_a_failover_run(self):
        faults = [ReplicaFault("crash", 0, 0.5)]
        summary = evaluate_candidate(
            [(CONFIG_16_16, 2)], REQUESTS, 2.0, faults=faults
        )
        engine = ServingEngine(
            CONFIG_16_16,
            replicas=2,
            routing="least-loaded",
            chip_map={0: "16-16 g0-0", 1: "16-16 g0-1"},
            faults=faults,
        )
        assert summary == engine.run(REQUESTS, 2.0).summary
        assert summary["failover"]["faults"][0]["kind"] == "crash"
        assert summary["per_replica"][0]["status"] == "down"

    def test_faulted_path_serves_a_mixed_fleet(self):
        summary = evaluate_candidate(
            [(CONFIG_16_16, 1), (CONFIG_32_32, 1)], REQUESTS, 2.0,
            faults=[ReplicaFault("crash", 0, 0.5)],
        )
        assert summary["terminated"] == summary["offered"]
        assert [d["chip"] for d in summary["per_replica"]] == [
            "16-16 g0-0",
            "32-32 g1-0",
        ]
        # the survivor is the 32-32 chip, which serves the tail
        assert summary["per_replica"][1]["completed"] > 0


class TestRankCandidates:
    def test_orders_by_key_with_name_tiebreak(self):
        results = {
            "b": {"p95": 2.0, "goodput": 10.0},
            "a": {"p95": 1.0, "goodput": 10.0},
            "c": {"p95": 1.0, "goodput": 10.0},
        }
        ranked = rank_candidates(results, key=lambda s: (s["p95"], -s["goodput"]))
        assert ranked == ["a", "c", "b"]
