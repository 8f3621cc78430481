"""Intra-kernel scheme tests (Sec 4.1.2): sliding vs unrolling realizations."""

import math

from repro.schemes import make_scheme
from repro.tiling.layout import Layout

from tests.conftest import make_ctx


class TestModeSelection:
    def test_sliding_when_k_equals_s(self, cfg16):
        ctx = make_ctx(in_maps=4, out_maps=8, kernel=2, stride=2, hw=16)
        r = make_scheme("intra").schedule(ctx, cfg16)
        assert r.notes["mode"] == "sliding"
        assert r.reshape_cycles == 0

    def test_unrolling_otherwise(self, cfg16):
        ctx = make_ctx(in_maps=4, out_maps=8, kernel=3, stride=1, hw=16)
        r = make_scheme("intra").schedule(ctx, cfg16)
        assert r.notes["mode"] == "unrolling"
        assert r.reshape_cycles > 0

    def test_padding_forces_unrolling(self, cfg16):
        ctx = make_ctx(in_maps=4, out_maps=8, kernel=2, stride=2, pad=1, hw=16)
        r = make_scheme("intra").schedule(ctx, cfg16)
        assert r.notes["mode"] == "unrolling"


class TestCycles:
    def test_receptive_field_vectorization(self, cfg16):
        # field = 3*3*4 = 36 -> 3 chunks of 16
        ctx = make_ctx(in_maps=4, out_maps=16, kernel=3, pad=1, hw=8)
        r = make_scheme("intra").schedule(ctx, cfg16)
        assert r.operations == 64 * math.ceil(36 / 16) * 1

    def test_conv1_nearly_ideal_compute(self, alexnet_conv1_ctx, cfg16):
        """With k*k*Din = 363 >> Tin, conv1 utilizes the array well."""
        r = make_scheme("intra").schedule(alexnet_conv1_ctx, cfg16)
        ideal = make_scheme("ideal").schedule(alexnet_conv1_ctx, cfg16)
        assert r.operations < 1.05 * ideal.operations

    def test_conv1_wallclock_hurt_by_unrolling(self, alexnet_conv1_ctx, cfg16):
        """'Since the extra memory traffic of unrolling, intra is slower
        than partition' — the wall-clock is stream-bound."""
        r = make_scheme("intra").schedule(alexnet_conv1_ctx, cfg16)
        assert r.stream_cycles > r.operations
        assert r.total_cycles == r.stream_cycles


class TestTraffic:
    def test_weights_loaded_once(self, cfg16):
        ctx = make_ctx(in_maps=4, out_maps=16, kernel=3, pad=1, hw=8)
        r = make_scheme("intra").schedule(ctx, cfg16)
        assert r.accesses["weight"].loads == 9 * 4 * 16

    def test_dram_inflated_by_unroll_factor(self, cfg16):
        ctx = make_ctx(in_maps=4, out_maps=8, kernel=3, stride=1, hw=32)
        r = make_scheme("intra").schedule(ctx, cfg16)
        assert r.notes["stream_words"] == 30 * 30 * 9 * 4
        assert r.dram_words >= r.notes["stream_words"]

    def test_sliding_no_inflation(self, cfg16):
        ctx = make_ctx(in_maps=4, out_maps=8, kernel=2, stride=2, hw=16)
        r = make_scheme("intra").schedule(ctx, cfg16)
        assert r.notes["stream_words"] == ctx.in_shape.elements

    def test_nonresident_excess_refetched_per_output_chunk(self, cfg16):
        """The 'redundant data' penalty: unrolled tensors that overflow the
        input buffer re-fetch the excess on every Dout-chunk pass."""
        # in: 64 maps of 112^2 -> unrolled 9x = 7.2M words >> 1M-word buffer
        ctx = make_ctx(in_maps=64, out_maps=128, kernel=3, pad=1, hw=112)
        r = make_scheme("intra").schedule(ctx, cfg16)
        unrolled = 112 * 112 * 9 * 64
        excess = unrolled - cfg16.input_buffer_words
        dout_chunks = 128 // 16
        expected_extra = (dout_chunks - 1) * excess
        assert r.dram_words >= unrolled + expected_extra

    def test_small_unrolled_tensor_not_penalized(self, cfg16):
        ctx = make_ctx(in_maps=8, out_maps=32, kernel=3, pad=1, hw=16)
        r = make_scheme("intra").schedule(ctx, cfg16)
        unrolled = 16 * 16 * 9 * 8
        weights = 9 * 8 * 32
        assert r.dram_words == unrolled + weights + ctx.out_shape.elements

    def test_add_and_store_partials(self, cfg16):
        ctx = make_ctx(in_maps=4, out_maps=16, kernel=3, pad=1, hw=8)
        r = make_scheme("intra").schedule(ctx, cfg16)
        chunks = math.ceil(36 / 16)
        assert r.accesses["output"].stores == ctx.out_shape.elements * chunks

    def test_layouts_are_intra_order(self, cfg16):
        r = make_scheme("intra").schedule(make_ctx(), cfg16)
        assert r.input_layout is Layout.INTRA
        assert r.output_layout is Layout.INTRA
