"""Rollup / JSON export tests: byte stability and content."""

import json
import math

import pytest

from repro.cluster import (
    LinkSpec,
    plan_data_parallel,
    plan_pipeline,
    rollup,
    rollup_data_parallel,
    rollup_pipeline,
)
from repro.errors import ConfigError
from repro.serve.metrics import to_json


class TestPipelineRollup:
    def test_fields(self, alexnet, cfg16):
        plan = plan_pipeline(alexnet, cfg16, 3)
        d = rollup_pipeline(plan)
        assert d["kind"] == "pipeline"
        assert d["chips"] == 3
        assert d["strategy"] == "dp"
        assert len(d["stages"]) == 3
        assert d["bottleneck_ms"] == pytest.approx(plan.bottleneck_s * 1e3, rel=1e-5)
        assert d["stages"][-1]["send_bytes"] == 0
        layers = [n for s in d["stages"] for n in s["layers"]]
        assert layers[0] == "conv1"

    def test_byte_stable_across_fresh_plans(self, alexnet, cfg16):
        blobs = {
            to_json(rollup(plan_pipeline(alexnet, cfg16, 4))) for _ in range(3)
        }
        assert len(blobs) == 1

    def test_json_round_trips(self, vgg, cfg16):
        blob = to_json(rollup(plan_pipeline(vgg, cfg16, 2)))
        assert blob.endswith("\n")
        parsed = json.loads(blob)
        assert parsed["network"] == "vgg"

    def test_infinite_bandwidth_serializes_as_string(self, alexnet, cfg16):
        plan = plan_pipeline(
            alexnet, cfg16, 2, link=LinkSpec(math.inf, 0.0)
        )
        blob = to_json(rollup(plan))
        assert json.loads(blob)["link"]["bandwidth_gbs"] == "inf"
        assert "Infinity" not in blob


class TestDataParallelRollup:
    def test_fields(self, alexnet, cfg16):
        plan = plan_data_parallel(alexnet, cfg16, 2, batch_size=4)
        d = rollup_data_parallel(plan)
        assert d["kind"] == "data-parallel"
        assert d["batch_size"] == 4
        assert [s["batch"] for s in d["shards"]] == [2, 2]
        assert d["speedup"] == pytest.approx(plan.speedup, rel=1e-4)

    def test_byte_stable(self, alexnet, cfg16):
        blobs = {
            to_json(rollup(plan_data_parallel(alexnet, cfg16, 2, batch_size=4)))
            for _ in range(3)
        }
        assert len(blobs) == 1


class TestDispatch:
    def test_rollup_rejects_foreign_objects(self):
        with pytest.raises(ConfigError, match="cannot roll up"):
            rollup("not a plan")
