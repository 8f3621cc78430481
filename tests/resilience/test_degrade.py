"""Degraded-geometry replanning: mask arithmetic, scheme flips, cache keys.

The satellite requirement pinned here: PE mask → effective Tin/Tout →
Algorithm 2 scheme flip is *deterministic*, and the degraded config is
*cache-keyed distinctly* from the healthy one.
"""

from __future__ import annotations

import pytest

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.nn.zoo import build
from repro.nn.zoo.custom import sequential_cnn
from repro.resilience.degrade import degraded_config, replan_degraded
from repro.resilience.faults import PEMask

#: conv1 has Din=8 < Tin=16 -> partition on the healthy array; masking 9
#: columns gives Tin=7 <= 8, so Algorithm 2 flips it to inter-kernel
DIN8 = sequential_cnn("din8", (8, 32, 32), "C32k3s1p1 R")


class TestDegradedConfig:
    def test_mask_arithmetic(self):
        degraded = degraded_config(CONFIG_16_16, PEMask(masked_cols=9, masked_rows=4))
        assert degraded.tin == 7
        assert degraded.tout == 12

    def test_noop_mask_keeps_geometry(self):
        degraded = degraded_config(CONFIG_16_16, PEMask())
        assert (degraded.tin, degraded.tout) == (16, 16)

    def test_all_columns_masked_rejected(self):
        with pytest.raises(ConfigError, match="input lane"):
            degraded_config(CONFIG_16_16, PEMask(masked_cols=16))

    def test_all_rows_masked_rejected(self):
        with pytest.raises(ConfigError, match="adder tree"):
            degraded_config(CONFIG_16_16, PEMask(masked_rows=20))


class TestSchemeFlip:
    def test_din8_flips_partition_to_inter(self):
        report = replan_degraded(DIN8, CONFIG_16_16, PEMask(masked_cols=9))
        assert len(report.flips) == 1
        flip = report.flips[0]
        assert flip.layer_name == "conv1"
        assert flip.healthy_scheme == "partition"
        assert flip.degraded_scheme == "inter-improved"

    def test_flip_is_deterministic(self):
        def run():
            return replan_degraded(
                DIN8, CONFIG_16_16, PEMask(masked_cols=9)
            ).to_dict()

        assert run() == run()

    def test_small_mask_does_not_flip(self):
        # Tin=14 still exceeds Din=8, so the partition verdict stands
        report = replan_degraded(DIN8, CONFIG_16_16, PEMask(masked_cols=2))
        assert report.flips == ()

    def test_alexnet_conv1_flips_under_deep_mask(self):
        report = replan_degraded(
            build("alexnet"), CONFIG_16_16, PEMask(masked_cols=13)
        )
        assert any(
            f.layer_name == "conv1" and f.degraded_scheme == "inter-improved"
            for f in report.flips
        )


class TestCacheKeys:
    def test_degraded_config_keys_distinct(self):
        degraded = degraded_config(CONFIG_16_16, PEMask(masked_cols=9))
        assert degraded.schedule_key != CONFIG_16_16.schedule_key

    def test_canonical_keys_distinct_per_geometry(self):
        # the full cache key of one layer: healthy and degraded never share
        ctx = DIN8.conv_contexts()[0]
        degraded = degraded_config(CONFIG_16_16, PEMask(masked_cols=9))
        healthy_key = (ctx.geometry_key, CONFIG_16_16.schedule_key)
        degraded_key = (ctx.geometry_key, degraded.schedule_key)
        assert healthy_key != degraded_key

    def test_row_only_mask_also_distinct(self):
        ctx = DIN8.conv_contexts()[0]
        degraded = degraded_config(CONFIG_16_16, PEMask(masked_rows=1))
        assert (ctx.geometry_key, degraded.schedule_key) != (
            ctx.geometry_key, CONFIG_16_16.schedule_key
        )


class TestReplanReport:
    def test_degraded_is_slower(self):
        report = replan_degraded(DIN8, CONFIG_16_16, PEMask(masked_cols=9))
        assert report.degraded_ms > report.healthy_ms
        assert report.slowdown > 1.0

    def test_to_dict_shape(self):
        d = replan_degraded(DIN8, CONFIG_16_16, PEMask(masked_cols=9)).to_dict()
        assert d["network"] == "din8"
        assert d["healthy_pe"] == [16, 16]
        assert d["degraded_pe"] == [7, 16]
        assert d["scheme_flips"][0]["layer"] == "conv1"
        assert d["slowdown"] == pytest.approx(
            d["degraded_ms"] / d["healthy_ms"], rel=1e-4
        )
