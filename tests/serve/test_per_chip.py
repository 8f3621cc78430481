"""Shared-chip accounting: chip tags, per-chip rollup, adaptive envelopes."""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.serve.batcher import BatchCoster
from repro.serve.engine import (
    AdaptiveServingEngine,
    ReplicaState,
    ServingEngine,
    per_chip_rollup,
)
from repro.serve.workload import TenantSpec, poisson_arrivals

TENANTS = [TenantSpec("acme", "alexnet")]

_COSTER = BatchCoster(CONFIG_16_16)


def _requests(rate=40.0, duration=3.0, seed=7):
    return poisson_arrivals(rate, duration, TENANTS, seed=seed)


class TestStaticEngineTags:
    def test_per_chip_present_when_tagged(self):
        engine = ServingEngine(
            CONFIG_16_16,
            replicas=2,
            coster=_COSTER,
            chip_map={0: "c0", 1: "c1"},
        )
        summary = engine.run(_requests(), 3.0).summary
        assert set(summary["per_chip"]) == {"c0", "c1"}
        for rep in summary["per_replica"]:
            assert rep["chip"] in {"c0", "c1"}
            assert rep["chip_share"] == 1.0

    def test_co_resident_replicas_share_a_chip(self):
        engine = ServingEngine(
            CONFIG_16_16,
            replicas=2,
            coster=_COSTER,
            chip_map={0: "c0", 1: "c0"},
            chip_shares={0: 0.5, 1: 0.5},
        )
        summary = engine.run(_requests(), 3.0).summary
        entry = summary["per_chip"]["c0"]
        assert entry["replicas"] == [0, 1]
        # the chip is charged once: span == makespan, not 2x
        assert entry["chip_seconds"] == summary["makespan_s"]

    def test_regression_untagged_report_unchanged(self):
        # no chip_map -> no per_chip section and no chip keys anywhere;
        # existing report consumers must see byte-identical shapes
        summary = ServingEngine(
            CONFIG_16_16, replicas=2, coster=_COSTER
        ).run(_requests(), 3.0).summary
        assert "per_chip" not in summary
        for rep in summary["per_replica"]:
            assert "chip" not in rep
            assert "chip_share" not in rep

    # the constructor validates the tags, before any run
    def test_chip_map_unknown_rid(self):
        with pytest.raises(ConfigError, match="unknown replica rid"):
            ServingEngine(
                CONFIG_16_16, replicas=1, coster=_COSTER, chip_map={3: "c0"}
            )

    def test_chip_shares_without_map(self):
        with pytest.raises(ConfigError, match="chip_shares requires chip_map"):
            ServingEngine(
                CONFIG_16_16, replicas=1, coster=_COSTER, chip_shares={0: 0.5}
            )

    def test_chip_share_without_map_entry(self):
        with pytest.raises(ConfigError, match="no chip_map entry"):
            ServingEngine(
                CONFIG_16_16,
                replicas=2,
                coster=_COSTER,
                chip_map={0: "c0"},
                chip_shares={1: 0.5},
            )

    @pytest.mark.parametrize("share", [0.0, -0.5, 1.5])
    def test_chip_share_out_of_range(self, share):
        with pytest.raises(ConfigError, match=r"in \(0, 1\]"):
            ServingEngine(
                CONFIG_16_16,
                replicas=1,
                coster=_COSTER,
                chip_map={0: "c0"},
                chip_shares={0: share},
            )


class TestPerChipRollup:
    def test_share_weighted_utilization(self):
        replicas = [
            ReplicaState(rid=0, busy_s=2.0, chip="c0", chip_share=0.5),
            ReplicaState(rid=1, busy_s=4.0, chip="c0", chip_share=0.5),
        ]
        out = per_chip_rollup(replicas, {"c0": 4.0})
        entry = out["c0"]
        # (2*0.5 + 4*0.5) / 4 = 0.75
        assert entry["utilization"] == 0.75
        assert entry["busy_ms"] == 6000.0
        assert entry["chip_seconds"] == 4.0

    def test_untagged_replicas_skipped(self):
        replicas = [
            ReplicaState(rid=0, busy_s=1.0),
            ReplicaState(rid=1, busy_s=1.0, chip="c1"),
        ]
        out = per_chip_rollup(replicas, {"c1": 2.0})
        assert list(out) == ["c1"]
        assert out["c1"]["replicas"] == [1]

    def test_zero_span_guard(self):
        replicas = [ReplicaState(rid=0, busy_s=0.0, chip="c0")]
        assert per_chip_rollup(replicas, {})["c0"]["utilization"] == 0.0


class TestAdaptiveEngineTags:
    def test_add_replica_with_chip_tag(self):
        engine = AdaptiveServingEngine(
            CONFIG_16_16, replicas=1, coster=_COSTER, chip_map={0: "c0"}
        )
        rid = engine.add_replica(chip="c0")
        assert rid == 1
        report = engine.run(_requests(), 3.0)
        entry = report.summary["per_chip"]["c0"]
        assert entry["replicas"] == [0, 1]
        # both partitions live on one chip the whole run: envelope ==
        # makespan, charged once
        assert entry["chip_seconds"] == report.summary["makespan_s"]

    def test_lifetime_envelope_spans_join_to_retire(self):
        requests = _requests(duration=4.0)
        engine = AdaptiveServingEngine(
            CONFIG_16_16, replicas=1, coster=_COSTER, chip_map={0: "c0"}
        )
        engine.ingest(requests)
        engine.advance_to(1.0)
        rid = engine.add_replica(chip="c1")
        engine.advance_to(2.0)
        retired = engine.drain_replica(rid)
        report = engine.finish(4.0)
        span = report.summary["per_chip"]["c1"]["chip_seconds"]
        # c1 held only from add (t=1) to retirement, not the whole run
        assert span == pytest.approx(retired - 1.0, rel=1e-6)
        assert span < report.summary["makespan_s"]

    def test_adaptive_untagged_regression(self):
        summary = AdaptiveServingEngine(
            CONFIG_16_16, replicas=1, coster=_COSTER
        ).run(_requests(), 3.0).summary
        assert "per_chip" not in summary
