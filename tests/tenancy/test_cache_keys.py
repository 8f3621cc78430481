"""Schedule-cache keys include effective geometry (the tenancy guarantee).

A partitioned or masked chip must never share cache entries with the
full chip — ``AcceleratorConfig.schedule_key`` carries tin/tout, the four
buffer sizes, and the DMA rate, so every distinct effective geometry gets
distinct keys — while the *degenerate* whole-chip partition derives a
config equal to the parent and therefore hits exactly the parent's
entries (bit-identical plans, by construction rather than by luck).
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

from repro.adaptive import plan_network
from repro.arch.config import CONFIG_32_32
from repro.resilience import PEMask, degraded_config
from repro.tenancy import even_partitions, full_chip_spec, partition_chip


class TestKeyDistinctness:
    def test_partition_key_differs_from_parent(self):
        subs = partition_chip(CONFIG_32_32, even_partitions(CONFIG_32_32, 2))
        for sub in subs:
            assert sub.config.schedule_key != CONFIG_32_32.schedule_key

    def test_mask_and_partition_same_pe_still_distinct(self):
        # a PE mask shrinks the array but keeps the whole SRAM; a
        # partition shrinks both — same tin/tout, different keys
        masked = degraded_config(CONFIG_32_32, PEMask(masked_cols=16))
        sub = partition_chip(CONFIG_32_32, even_partitions(CONFIG_32_32, 2))[0]
        assert masked.tin == sub.config.tin
        assert masked.tout == sub.config.tout
        assert masked.schedule_key != sub.config.schedule_key

    def test_degenerate_partition_hits_parent_entries(self):
        (sub,) = partition_chip(CONFIG_32_32, [full_chip_spec(CONFIG_32_32)])
        assert sub.config.schedule_key == CONFIG_32_32.schedule_key

    def test_sibling_partitions_of_equal_shape_share_keys(self):
        # two 16x32 strips are the *same* geometry — they should share
        # cache entries with each other (that's the win), just not with
        # the parent
        a, b = partition_chip(CONFIG_32_32, even_partitions(CONFIG_32_32, 2))
        assert a.config.schedule_key == b.config.schedule_key


class TestDegenerateBitIdentity:
    def test_whole_chip_partition_plans_bit_identical(self, alexnet):
        (sub,) = partition_chip(CONFIG_32_32, [full_chip_spec(CONFIG_32_32)])
        base = plan_network(alexnet, CONFIG_32_32, "adaptive-2")
        derived = plan_network(alexnet, sub.config, "adaptive-2")
        assert derived.total_cycles == base.total_cycles
        assert derived.buffer_accesses == base.buffer_accesses
        assert derived.dram_words == base.dram_words


if HAVE_HYPOTHESIS:

    @settings(max_examples=30, deadline=None)
    @given(
        split=st.sampled_from([2, 4, 8]),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_partition_keys_never_collide_with_parent(split, frac):
        specs = even_partitions(CONFIG_32_32, split)
        specs = [
            type(s)(
                name=s.name,
                tin=s.tin,
                tout=s.tout,
                buffer_fraction=frac if i == 0 else (1 - frac) / (split - 1),
            )
            for i, s in enumerate(specs)
        ]
        subs = partition_chip(CONFIG_32_32, specs)
        parent_key = CONFIG_32_32.schedule_key
        for sub in subs:
            assert sub.config.schedule_key != parent_key
else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis not installed")
    def test_partition_keys_never_collide_with_parent():
        pass
