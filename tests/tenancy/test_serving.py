"""Fleet serving: conservation, shared-chip accounting, degenerate identity."""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16, CONFIG_32_32
from repro.errors import ConfigError
from repro.serve.engine import ServingEngine
from repro.serve.metrics import to_json
from repro.serve.workload import mixed_arrivals, parse_tenant_mix
from repro.tenancy import (
    ChipSpec,
    FleetSpec,
    demand_from_tenants,
    even_partitions,
    full_chip_spec,
    place_tenants,
    serve_placement,
    worst_tenant_p95,
)

_TENANTS = parse_tenant_mix("acme=alexnet,beta=nin", slo_ms=250.0)


def _partitioned_fleet(config=CONFIG_32_32, splits=2):
    chip = ChipSpec(
        name="chip",
        config=config,
        partitions=tuple(even_partitions(config, splits)),
    )
    return FleetSpec(name="f", chips=(chip,))


def _serve(fleet, tenants=_TENANTS, rate=80.0, duration=4.0, seed=3):
    requests = mixed_arrivals(rate, duration, tenants, seed=seed)
    placement = place_tenants(fleet, demand_from_tenants(tenants, rate))
    return (
        serve_placement(fleet, placement, requests, duration),
        requests,
    )


class TestServePlacement:
    def test_conservation(self):
        summary, requests = _serve(_partitioned_fleet())
        assert summary["offered"] == len(requests)
        assert summary["completed"] + summary["shed"] == summary["offered"]
        per_slot = summary["per_slot"]
        assert sum(d["offered"] for d in per_slot.values()) == len(requests)

    def test_chip_counted_once_for_co_resident_partitions(self):
        summary, _ = _serve(_partitioned_fleet())
        per_chip = summary["per_chip"]
        # two partitions, ONE physical chip
        assert list(per_chip) == ["chip0"]
        entry = per_chip["chip0"]
        assert len(entry["replicas"]) == 2
        # chip-seconds are the makespan, not 2x (the shared-chip guarantee)
        assert entry["chip_seconds"] == summary["makespan_s"]
        assert 0.0 <= entry["utilization"] <= 1.0 + 1e-9

    def test_idle_chips_still_billed(self):
        fleet = FleetSpec(
            name="f",
            chips=(
                ChipSpec(name="big", config=CONFIG_32_32),
                ChipSpec(name="small", config=CONFIG_16_16, count=2),
            ),
        )
        tenants = parse_tenant_mix("acme=alexnet", slo_ms=250.0)
        summary, _ = _serve(fleet, tenants=tenants, rate=20.0)
        # one tenant uses one slot; the other chips appear at zero busy
        assert set(summary["per_chip"]) == {"big0", "small0", "small1"}
        idle = [
            c
            for c, e in summary["per_chip"].items()
            if e["busy_ms"] == 0.0
        ]
        assert len(idle) == 2
        for chip in idle:
            assert (
                summary["per_chip"][chip]["chip_seconds"]
                == summary["makespan_s"]
            )

    def test_fleet_section(self):
        summary, _ = _serve(_partitioned_fleet())
        fleet = summary["fleet"]
        assert fleet["total_weight"] == 4.0
        assert fleet["weighted_chip_seconds"] == pytest.approx(
            4.0 * summary["makespan_s"], rel=1e-6
        )
        assert fleet["slots"] == 2

    def test_unplaced_tenant_is_an_error(self):
        fleet = _partitioned_fleet()
        tenants = parse_tenant_mix("acme=alexnet,beta=nin", slo_ms=250.0)
        requests = mixed_arrivals(40.0, 2.0, tenants, seed=1)
        only_acme = demand_from_tenants(tenants[:1], 20.0)
        placement = place_tenants(fleet, only_acme)
        with pytest.raises(ConfigError, match=r"unplaced tenants \['beta'\]"):
            serve_placement(fleet, placement, requests, 2.0)

    def test_rollup_byte_stable(self):
        a, _ = _serve(_partitioned_fleet())
        b, _ = _serve(_partitioned_fleet())
        assert to_json(a) == to_json(b)

    def test_worst_tenant_p95(self):
        summary, _ = _serve(_partitioned_fleet())
        worst = worst_tenant_p95(summary)
        per_tenant = summary["per_tenant"]
        assert worst == max(
            g["latency_ms"]["p95"] for g in per_tenant.values()
        )
        assert worst_tenant_p95({}) == 0.0


class TestDegenerateIdentity:
    """A whole-chip 'partition' must serve exactly like the plain engine."""

    def test_core_metrics_identical_to_plain_engine(self):
        tenants = parse_tenant_mix("acme=alexnet", slo_ms=250.0)
        requests = mixed_arrivals(60.0, 4.0, tenants, seed=5)

        chip = ChipSpec(
            name="chip",
            config=CONFIG_32_32,
            partitions=(full_chip_spec(CONFIG_32_32),),
        )
        fleet = FleetSpec(name="whole", chips=(chip,))
        placement = place_tenants(fleet, demand_from_tenants(tenants, 60.0))
        rollup = serve_placement(fleet, placement, requests, 4.0)

        plain = ServingEngine(CONFIG_32_32, replicas=1).run(requests, 4.0)
        base = plain.summary

        for key in (
            "offered",
            "completed",
            "shed",
            "goodput_rps",
            "mean_batch_size",
            "utilization",
            "makespan_s",
        ):
            assert rollup[key] == base[key], key
        assert rollup["latency_ms"] == base["latency_ms"]
        assert rollup["per_tenant"] == base["per_tenant"]

    def test_untagged_plain_engine_has_no_per_chip(self):
        tenants = parse_tenant_mix("acme=alexnet", slo_ms=250.0)
        requests = mixed_arrivals(30.0, 2.0, tenants, seed=5)
        summary = ServingEngine(CONFIG_16_16, replicas=1).run(
            requests, 2.0
        ).summary
        assert "per_chip" not in summary
