"""ABFT checksum prediction, detection, localization and recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.integrity.abft import (
    ABFT_PATHS,
    check_output,
    golden_codes,
    predicted_checksums,
    quantize_conv_operands,
    verified_conv,
)
from repro.integrity.sdc import SDCInjector
from repro.nn.layers import ConvLayer, TensorShape
from repro.resilience.faults import BITFLIP_SITES, BitFlipFault
from repro.sim.functional import random_conv_tensors

#: (k, s, pad, groups, din, dout, hw) — odd/even kernels, stride, padding,
#: groups, and the stride >= kernel partition fallback
GEOMETRIES = [
    (3, 1, 0, 1, 3, 4, 8),
    (3, 1, 1, 1, 3, 4, 8),
    (2, 1, 0, 1, 4, 4, 7),
    (5, 2, 1, 1, 3, 4, 11),
    (3, 2, 1, 2, 4, 6, 9),
    (2, 3, 0, 1, 3, 4, 9),
]


def tensors(k, s, pad, groups, din, dout, hw, seed=0):
    layer = ConvLayer(
        "t", in_maps=din, out_maps=dout, kernel=k, stride=s, pad=pad, groups=groups
    )
    return random_conv_tensors(layer, TensorShape(din, hw, hw), seed=seed)


class TestPrediction:
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GEOMETRIES)
    def test_predicted_sums_match_golden(self, k, s, pad, groups, din, dout, hw):
        data, weights, bias = tensors(k, s, pad, groups, din, dout, hw)
        codes = quantize_conv_operands(data, weights, bias)
        predicted = predicted_checksums(*codes, stride=s, pad=pad, groups=groups)
        golden = golden_codes(data, weights, bias, stride=s, pad=pad, groups=groups)
        assert np.array_equal(predicted.row, golden.sum(axis=2))
        assert np.array_equal(predicted.col, golden.sum(axis=1))
        assert np.array_equal(predicted.total, golden.sum(axis=(1, 2)))

    def test_no_bias(self):
        data, weights, _ = tensors(3, 1, 0, 1, 3, 4, 8)
        dc, wc, _ = quantize_conv_operands(data, weights, None)
        predicted = predicted_checksums(dc, wc)
        golden = golden_codes(data, weights, None)
        assert np.array_equal(predicted.total, golden.sum(axis=(1, 2)))

    def test_float_tensors_rejected(self):
        with pytest.raises(ConfigError, match="integer-code"):
            predicted_checksums(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)))

    @pytest.mark.parametrize(
        "name,value",
        [
            ("stride", 0),
            ("stride", True),
            ("pad", -1),
            ("groups", 0),
            ("groups", True),
            ("groups", 1.0),
            ("groups", 3),  # divides neither depth
        ],
    )
    def test_bad_stride_pad_groups_named(self, name, value):
        data, weights, bias = tensors(3, 1, 0, 1, 4, 4, 8)
        codes = quantize_conv_operands(data, weights, bias)
        args = {"stride": 1, "pad": 0, "groups": 1, name: value}
        with pytest.raises(ShapeError, match=f"{name}.*{value!r}"):
            predicted_checksums(*codes, **args)

    def test_extra_macs_counts_row_and_col_cells(self):
        data, weights, bias = tensors(3, 1, 0, 1, 3, 4, 8)
        codes = quantize_conv_operands(data, weights, bias)
        predicted = predicted_checksums(*codes)
        assert predicted.extra_macs == predicted.row.size + predicted.col.size


class TestCheck:
    def test_clean_output_passes(self):
        data, weights, bias = tensors(3, 1, 1, 1, 3, 4, 8)
        codes = quantize_conv_operands(data, weights, bias)
        predicted = predicted_checksums(*codes, stride=1, pad=1)
        report = check_output(
            golden_codes(data, weights, bias, stride=1, pad=1), predicted
        )
        assert report.clean
        assert report.mismatches == 0

    def test_single_element_corruption_localizes(self):
        data, weights, bias = tensors(3, 1, 0, 1, 3, 4, 8)
        codes = quantize_conv_operands(data, weights, bias)
        predicted = predicted_checksums(*codes)
        out = golden_codes(data, weights, bias).copy()
        out[2, 3, 1] += 77
        report = check_output(out, predicted)
        assert not report.clean
        assert report.flagged_maps == (2,)
        assert report.flagged_rows[2] == (3,)
        assert report.flagged_cols[2] == (1,)

    def test_float_output_rejected(self):
        data, weights, bias = tensors(3, 1, 0, 1, 3, 4, 8)
        codes = quantize_conv_operands(data, weights, bias)
        predicted = predicted_checksums(*codes)
        with pytest.raises(ConfigError, match="integer-code"):
            check_output(np.zeros((4, 6, 6)), predicted)


class TestVerifiedConv:
    @pytest.mark.parametrize("path", ABFT_PATHS)
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GEOMETRIES)
    def test_clean_runs_never_flag(self, path, k, s, pad, groups, din, dout, hw):
        data, weights, bias = tensors(k, s, pad, groups, din, dout, hw)
        result = verified_conv(
            data, weights, bias, stride=s, pad=pad, groups=groups, path=path
        )
        assert not result.detected
        assert result.recovery is None
        golden = golden_codes(data, weights, bias, stride=s, pad=pad, groups=groups)
        assert np.array_equal(result.output, golden)

    @pytest.mark.parametrize("path", ABFT_PATHS)
    @pytest.mark.parametrize("site", BITFLIP_SITES)
    def test_fired_flips_detected_and_recovered(self, path, site):
        data, weights, bias = tensors(3, 1, 1, 1, 3, 4, 8, seed=5)
        golden = golden_codes(data, weights, bias, stride=1, pad=1)
        for trial in range(3):
            inj = SDCInjector([BitFlipFault(site, 11 * trial + 3, 5 + trial)])
            result = verified_conv(
                data, weights, bias, stride=1, pad=1, path=path, inject=inj
            )
            if not inj.events:
                continue  # site has no hook on this path (psum on fallback)
            if np.array_equal(result.raw_output, golden):
                continue  # flip masked by an unused margin
            assert result.detected
            assert result.corrected
            assert np.array_equal(result.output, golden)

    def test_output_flip_triggers_row_recompute_only(self):
        data, weights, bias = tensors(3, 1, 0, 1, 3, 4, 8)
        inj = SDCInjector([BitFlipFault("output", 9, 12)])
        result = verified_conv(data, weights, bias, path="im2col", inject=inj)
        assert result.detected
        assert result.recovery.row_recomputes >= 1
        assert result.recovery.map_recomputes == 0

    def test_weight_flip_triggers_map_recompute(self):
        data, weights, bias = tensors(3, 1, 0, 1, 3, 4, 8)
        inj = SDCInjector([BitFlipFault("weight", 5, 14)])
        result = verified_conv(data, weights, bias, path="im2col", inject=inj)
        assert result.detected
        assert result.recovery.map_recomputes >= 1

    def test_raw_output_preserved_alongside_correction(self):
        data, weights, bias = tensors(3, 1, 0, 1, 3, 4, 8)
        inj = SDCInjector([BitFlipFault("output", 2, 13)])
        result = verified_conv(data, weights, bias, inject=inj)
        golden = golden_codes(data, weights, bias)
        assert not np.array_equal(result.raw_output, golden)
        assert np.array_equal(result.output, golden)

    def test_unknown_path_rejected(self):
        data, weights, bias = tensors(3, 1, 0, 1, 3, 4, 8)
        with pytest.raises(ConfigError, match="unknown ABFT path"):
            verified_conv(data, weights, bias, path="winograd")

    def test_integer_operands_pass_through(self):
        rng = np.random.default_rng(3)
        data = rng.integers(-100, 100, (3, 8, 8), dtype=np.int64)
        weights = rng.integers(-50, 50, (4, 3, 3, 3), dtype=np.int64)
        result = verified_conv(data, weights, None)
        assert not result.detected
        assert np.array_equal(result.output, golden_codes(data, weights, None))
