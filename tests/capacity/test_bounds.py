"""Analytic bounds: probes, mix weighting, and the one-sidedness invariant."""

from __future__ import annotations

import pytest

from repro.capacity.bounds import (
    attainment_bound,
    candidate_capacity_rps,
    probe_batches,
)
from repro.capacity.forecast import ForecastSpec
from repro.capacity.grid import Candidate
from repro.serve.batcher import BatchCoster, mix_image_seconds
from repro.serve.workload import parse_tenant_mix

TENANTS = tuple(parse_tenant_mix("acme=alexnet:1/nin:1", slo_ms=200.0))
FORECAST = ForecastSpec(tenants=TENANTS, rate=50.0, duration_s=2.0, seed=1)


def test_probe_batches_covers_one_and_the_cap():
    assert probe_batches(1) == [1]
    assert probe_batches(16) == [1, 2, 4, 8, 16]
    assert probe_batches(12) == [1, 2, 4, 8, 12]


def test_mix_image_seconds_is_the_share_weighted_mean(cfg16):
    coster = BatchCoster(cfg16)
    shares = FORECAST.network_shares()
    expected = sum(
        share * coster.image_seconds(net, 4) for net, share in shares
    )
    assert mix_image_seconds(coster, shares, 4) == pytest.approx(expected)


def test_capacity_scales_with_replicas():
    one = candidate_capacity_rps(Candidate("16-16", 1), FORECAST)
    four = candidate_capacity_rps(Candidate("16-16", 4), FORECAST)
    assert four == pytest.approx(4 * one)


def test_batching_never_hurts_the_bound():
    b1 = candidate_capacity_rps(Candidate("16-16", 1, max_batch=1), FORECAST)
    b16 = candidate_capacity_rps(Candidate("16-16", 1, max_batch=16), FORECAST)
    assert b16 >= b1


def test_sharded_capacity_costs_through_the_shard_model():
    from repro.cluster.link import LinkSpec
    from repro.cluster.replica import PipelinedReplica

    candidate = Candidate("16-16", 2, "pipeline", group=2, max_batch=8)
    got = candidate_capacity_rps(candidate, FORECAST, link_gbs=25.0)
    shard = PipelinedReplica(
        Candidate("16-16", 2).config, 2, link=LinkSpec(bandwidth_gbs=25.0),
        strategy="pipeline",
    )
    shares = FORECAST.network_shares()
    expected = 1.0 / min(
        mix_image_seconds(shard, shares, b) for b in probe_batches(8)
    )
    assert got == pytest.approx(expected)

def test_attainment_bound_clamps_and_scales():
    assert attainment_bound(100.0, 0, 10.0, 0.25) == 1.0
    assert attainment_bound(100.0, 10_000, 10.0, 0.25) == pytest.approx(0.1025)
    assert attainment_bound(1e9, 10, 10.0, 0.25) == 1.0
