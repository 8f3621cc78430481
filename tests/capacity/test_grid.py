"""Candidate/grid semantics: validation, naming, fault mapping, enumeration."""

from __future__ import annotations

import pytest

from repro.capacity.grid import Candidate, CandidateGrid
from repro.errors import ConfigError


class TestCandidate:
    def test_name_is_stable_and_self_describing(self):
        c = Candidate("16-16", 4, "pipeline", group=2, max_batch=8)
        assert c.name == "16-16 x4 pipeline/g2 b8"
        assert Candidate("32-32", 2, "partitioned", split=2).name == (
            "32-32 x2 partitioned/2 b16"
        )
        assert Candidate("16-16", 1).name == "16-16 x1 replicated b16"

    def test_replica_counts_per_strategy(self):
        assert Candidate("16-16", 4).n_replicas == 4
        assert Candidate("16-16", 4, "pipeline", group=2).n_replicas == 2
        assert Candidate("16-16", 4, "data-parallel", group=4).n_replicas == 1
        assert Candidate("16-16", 2, "partitioned", split=2).n_replicas == 4

    def test_partitioned_slot_config_shrinks_the_array(self):
        c = Candidate("16-16", 1, "partitioned", split=2)
        assert c.slot_config.tin == 8
        assert c.slot_config.tout == 16

    def test_fleet_weight_uses_reference_multipliers(self):
        assert Candidate("16-16", 3).fleet_weight == 3.0
        assert Candidate("32-32", 1).fleet_weight == 4.0
        # partitioning rearranges a chip; it does not change what it costs
        assert Candidate("32-32", 1, "partitioned", split=2).fleet_weight == 4.0

    def test_group_must_divide_chips(self):
        with pytest.raises(ConfigError, match="does not divide"):
            Candidate("16-16", 3, "pipeline", group=2)

    def test_split_must_tile_the_pe_array(self):
        with pytest.raises(ConfigError, match="divisible"):
            Candidate("16-16", 1, "partitioned", split=3)

    def test_irrelevant_axes_must_stay_at_one(self):
        with pytest.raises(ConfigError, match="group=1"):
            Candidate("16-16", 4, "replicated", group=2)
        with pytest.raises(ConfigError, match="split=1"):
            Candidate("16-16", 4, "pipeline", group=2, split=2)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            Candidate("16-16", 1, "mesh")


class TestChipReplicaMapping:
    def test_replicated_chip_is_its_own_replica(self):
        c = Candidate("16-16", 4)
        assert c.chip_replica(0) == (0,)
        assert c.chip_replica(3) == (3,)

    def test_sharded_group_dies_with_any_member_chip(self):
        c = Candidate("16-16", 4, "pipeline", group=2)
        assert c.chip_replica(0) == (0,)
        assert c.chip_replica(1) == (0,)
        assert c.chip_replica(2) == (1,)
        assert c.chip_replica(3) == (1,)

    def test_partitioned_chip_takes_all_coresident_partitions_down(self):
        c = Candidate("16-16", 2, "partitioned", split=2)
        assert c.chip_replica(0) == (0, 1)
        assert c.chip_replica(1) == (2, 3)

    def test_out_of_range_chip_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            Candidate("16-16", 2).chip_replica(2)


class TestCandidateGrid:
    def test_enumeration_is_deterministic_and_deduplicated(self):
        grid = CandidateGrid(
            geometries=("16-16",),
            chip_counts=(1, 2, 4),
            strategies=("replicated", "pipeline", "partitioned"),
            groups=(2,),
            splits=(2,),
            max_batches=(1, 16),
        )
        first = [c.name for c in grid.enumerate()]
        second = [c.name for c in grid.enumerate()]
        assert first == second
        assert len(first) == len(set(first))
        # n_chips=1 cannot shard in groups of 2 — silently skipped
        assert not any("x1 pipeline" in name for name in first)
        assert "16-16 x4 pipeline/g2 b16" in first

    def test_empty_grid_is_an_error(self):
        with pytest.raises(ConfigError, match="empty"):
            CandidateGrid(
                geometries=("16-16",),
                chip_counts=(1,),
                strategies=("pipeline",),
                groups=(2,),
            ).enumerate()

    def test_axis_validation(self):
        with pytest.raises(ConfigError, match="at least one geometry"):
            CandidateGrid(geometries=())
        with pytest.raises(ConfigError, match="unknown strategy"):
            CandidateGrid(strategies=("mesh",))
        with pytest.raises(ConfigError, match="link_gbs"):
            CandidateGrid(link_gbs=0.0)
