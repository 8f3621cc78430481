"""Fleet flattening and deterministic tenant placement."""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16, CONFIG_32_32
from repro.errors import ConfigError
from repro.serve.workload import TenantSpec, parse_tenant_mix
from repro.tenancy import (
    ChipSpec,
    FleetSpec,
    TenantDemand,
    demand_from_tenants,
    even_partitions,
    parse_fleet,
    place_tenants,
)


class TestFleetSlots:
    def test_slots_deterministic_order(self):
        fleet = parse_fleet("big:32-32:1,small:16-16:2", name="het")
        slots = fleet.slots()
        assert [s.slot_id for s in slots] == [0, 1, 2]
        assert [s.chip_id for s in slots] == ["big0", "small0", "small1"]
        assert [s.config.name for s in slots] == ["32-32", "16-16", "16-16"]
        assert all(s.share == 1.0 for s in slots)

    def test_partitioned_chip_shares_chip_id(self):
        chip = ChipSpec(
            name="split",
            config=CONFIG_32_32,
            partitions=tuple(even_partitions(CONFIG_32_32, 2)),
        )
        slots = FleetSpec(name="f", chips=(chip,)).slots()
        assert len(slots) == 2
        assert {s.chip_id for s in slots} == {"split0"}
        assert [s.partition for s in slots] == ["p0", "p1"]
        assert [s.share for s in slots] == [0.5, 0.5]

    def test_total_weight_counts_chips_once(self):
        chip = ChipSpec(
            name="split",
            config=CONFIG_32_32,
            partitions=tuple(even_partitions(CONFIG_32_32, 2)),
        )
        fleet = FleetSpec(name="f", chips=(chip,))
        # one 32-32 chip = 4 reference chips, regardless of partitioning
        assert fleet.total_weight() == 4.0

    def test_equal_weight_fleets(self):
        het = parse_fleet("big:32-32:1,small:16-16:4", name="het")
        homog = parse_fleet("small:16-16:8", name="homog")
        assert het.total_weight() == homog.total_weight() == 8.0

    def test_duplicate_chip_class(self):
        with pytest.raises(ConfigError, match="duplicate chip class"):
            parse_fleet("a:16-16:1,a:32-32:1")

    def test_parse_fleet_bad_entry(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_fleet("big:32-32:1:extra")

    def test_parse_fleet_bad_count(self):
        with pytest.raises(ConfigError, match="bad chip count"):
            parse_fleet("big:32-32:two")


class TestDemands:
    def test_weight_proportional_split(self):
        tenants = [
            TenantSpec(name="a", mix="alexnet", weight=3.0),
            TenantSpec(name="b", mix="nin", weight=1.0),
        ]
        demands = demand_from_tenants(tenants, rate_rps=400.0)
        assert demands[0].rate_rps == pytest.approx(300.0)
        assert demands[1].rate_rps == pytest.approx(100.0)
        assert demands[0].mix == (("alexnet", 1.0),)

    def test_mixed_tenant_mix_carries_over(self):
        tenants = parse_tenant_mix("acme=alexnet:3/nin:1")
        demands = demand_from_tenants(tenants, rate_rps=100.0)
        assert demands[0].mix == (("alexnet", 3.0), ("nin", 1.0))

    def test_bad_rate(self):
        with pytest.raises(ConfigError, match="rate_rps"):
            demand_from_tenants(
                [TenantSpec(name="a", mix="alexnet")], rate_rps=0.0
            )

    def test_demand_validation(self):
        with pytest.raises(ConfigError, match="rate_rps"):
            TenantDemand(name="a", rate_rps=-1.0, mix=(("alexnet", 1.0),))
        with pytest.raises(ConfigError, match="mix"):
            TenantDemand(name="a", rate_rps=1.0, mix=())


class TestPlacement:
    def _demands(self, rate=200.0):
        tenants = parse_tenant_mix(
            "ml=vgg@1,app1=alexnet@4,app2=nin@4", slo_ms=250.0
        )
        return demand_from_tenants(tenants, rate_rps=rate)

    def test_placement_deterministic(self):
        fleet = parse_fleet("big:32-32:1,small:16-16:4", name="het")
        a = place_tenants(fleet, self._demands())
        b = place_tenants(fleet, self._demands())
        assert a.slot_of == b.slot_of
        assert a.to_dict() == b.to_dict()

    def test_vgg_lands_on_the_big_chip(self):
        # vgg is compute-bound: the planner's own costs should send it to
        # the 32-32 slot, no affinity table involved
        fleet = parse_fleet("big:32-32:1,small:16-16:4", name="het")
        placement = place_tenants(fleet, self._demands())
        slots = fleet.slots()
        assert slots[placement.slot_of["ml"]].config.name == "32-32"

    def test_duplicate_demand(self):
        fleet = parse_fleet("small:16-16:2", name="f")
        d = self._demands()[0]
        with pytest.raises(ConfigError, match="duplicate tenant demand"):
            place_tenants(fleet, [d, d])

    def test_empty_demands(self):
        fleet = parse_fleet("small:16-16:2", name="f")
        with pytest.raises(ConfigError, match="at least one"):
            place_tenants(fleet, [])

    def test_objective_not_worse_than_greedy_only(self):
        # local search only ever improves (max util, latency proxy)
        fleet = parse_fleet("big:32-32:1,small:16-16:4", name="het")
        placement = place_tenants(fleet, self._demands(rate=400.0))
        assert placement.passes >= 1
        assert placement.max_utilization() >= 0.0
        util = placement.to_dict()["slot_utilization"]
        assert set(util) == {str(s.slot_id) for s in fleet.slots()}
