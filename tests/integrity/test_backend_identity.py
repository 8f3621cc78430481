"""ABFT exactness against the loop-nest oracle, bit for bit.

The integrity guard's claims — exact checksums, zero false positives,
bit-identical recovery — were first shown on the paper's loop nests,
which :mod:`tests.sim.loop_oracle` keeps.  These tests hold production to
them: predicted checksums (with and without bias) equal the oracle's
per-tap reductions, golden codes equal its per-pixel convolution, and
:func:`verified_conv` and :func:`recompute_flagged` give the same
outputs, verdicts, localization decisions and recomputed results as
production's own ABFT control flow run over the oracle's loops
(:func:`on_the_oracle`), including under seeded fault injection at every
buffer site.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.integrity import abft
from repro.integrity.abft import (
    ABFT_PATHS,
    check_output,
    golden_codes,
    predicted_checksums,
    quantize_conv_operands,
    recompute_flagged,
    verified_conv,
)
from repro.integrity.sdc import SDCInjector
from repro.nn.layers import ConvLayer, TensorShape
from repro.resilience.faults import BITFLIP_SITES, seeded_bitflips
from repro.sim.functional import random_conv_tensors
from tests.sim import loop_oracle as oracle

#: (k, s, pad, groups, din, dout, hw) — the sweep's geometry classes
GRID = [
    (11, 4, 0, 1, 3, 8, 35),
    (3, 1, 1, 1, 4, 8, 14),
    (2, 1, 0, 1, 4, 6, 12),
    (5, 2, 1, 2, 4, 8, 16),
    (2, 3, 0, 1, 3, 6, 13),  # s > k fallback
]


def operands(k, s, pad, groups, din, dout, hw, seed=0):
    layer = ConvLayer(
        "l", in_maps=din, out_maps=dout, kernel=k, stride=s, pad=pad, groups=groups
    )
    data, weights, bias = random_conv_tensors(layer, TensorShape(din, hw, hw), seed=seed)
    return quantize_conv_operands(data, weights, bias)


@contextmanager
def on_the_oracle():
    """Run production's ABFT control flow (quantize, check, localize,
    recompute) over the oracle's checksums and convolutions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abft, "predicted_checksums", oracle.predicted_checksums)
        patch.setattr(abft, "reference_conv", oracle.reference_conv)
        patch.setattr(
            abft,
            "_PATH_FNS",
            {
                "partition": oracle.conv_via_partition,
                "im2col": oracle.conv_via_im2col,
                "inter": oracle.conv_via_inter_improved,
            },
        )
        yield


class TestChecksumIdentity:
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GRID)
    def test_predicted_checksums_identical(self, k, s, pad, groups, din, dout, hw):
        data_codes, weight_codes, bias_codes = operands(k, s, pad, groups, din, dout, hw)
        want = oracle.predicted_checksums(
            data_codes, weight_codes, bias_codes, s, pad, groups
        )
        got = predicted_checksums(data_codes, weight_codes, bias_codes, s, pad, groups)
        assert np.array_equal(got.row, want.row)
        assert np.array_equal(got.col, want.col)
        assert np.array_equal(got.total, want.total)

    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GRID[:3])
    def test_no_bias_checksums_identical(self, k, s, pad, groups, din, dout, hw):
        data_codes, weight_codes, _ = operands(k, s, pad, groups, din, dout, hw)
        want = oracle.predicted_checksums(
            data_codes, weight_codes, None, s, pad, groups
        )
        got = predicted_checksums(data_codes, weight_codes, None, s, pad, groups)
        assert np.array_equal(got.row, want.row)
        assert np.array_equal(got.col, want.col)

    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GRID)
    def test_golden_codes_identical(self, k, s, pad, groups, din, dout, hw):
        data_codes, weight_codes, bias_codes = operands(k, s, pad, groups, din, dout, hw)
        want = oracle.reference_conv(
            data_codes, weight_codes, bias_codes, s, pad, groups
        )
        got = golden_codes(data_codes, weight_codes, bias_codes, s, pad, groups)
        assert np.array_equal(got, want)


def verified_pair(*codes, make_inject=lambda: None, **kwargs):
    """``verified_conv`` in production and on the oracle; ``make_inject``
    builds a fresh injector for each run."""
    got = verified_conv(*codes, inject=make_inject(), **kwargs)
    with on_the_oracle():
        want = verified_conv(*codes, inject=make_inject(), **kwargs)
    return got, want


class TestVerifiedConvIdentity:
    @pytest.mark.parametrize("path", ABFT_PATHS)
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GRID)
    def test_clean_runs_identical(self, k, s, pad, groups, din, dout, hw, path):
        codes = operands(k, s, pad, groups, din, dout, hw)
        got, want = verified_pair(*codes, stride=s, pad=pad, groups=groups, path=path)
        assert not got.detected and not want.detected
        assert np.array_equal(got.output, want.output)

    @pytest.mark.parametrize("site", BITFLIP_SITES)
    @pytest.mark.parametrize("path", ABFT_PATHS)
    def test_injected_verdicts_identical(self, path, site):
        k, s, pad, groups, din, dout, hw = GRID[0]
        codes = operands(k, s, pad, groups, din, dout, hw)
        for fi in range(3):
            fault = seeded_bitflips(fi * 7919 + 13, 1, sites=(site,))[0]
            got, want = verified_pair(
                *codes,
                stride=s,
                pad=pad,
                groups=groups,
                path=path,
                make_inject=lambda: SDCInjector([fault]),
            )
            # verdicts, raw (possibly corrupted) output, localization and
            # the recovered output must all agree byte-for-byte
            assert got.detected == want.detected, (path, site, fi)
            assert got.corrected == want.corrected, (path, site, fi)
            assert np.array_equal(got.raw_output, want.raw_output)
            assert np.array_equal(got.output, want.output)
            assert got.check.to_dict() == want.check.to_dict()
            if want.recovery is not None:
                assert got.recovery is not None
                assert got.recovery.to_dict() == want.recovery.to_dict()
                assert got.recovery.recomputed == want.recovery.recomputed


class TestRecomputeIdentity:
    def test_recompute_flagged_identical_across_backends(self):
        k, s, pad, groups, din, dout, hw = GRID[1]
        data_codes, weight_codes, bias_codes = operands(k, s, pad, groups, din, dout, hw)
        golden = oracle.reference_conv(
            data_codes, weight_codes, bias_codes, s, pad, groups
        )
        predicted = oracle.predicted_checksums(
            data_codes, weight_codes, bias_codes, s, pad, groups
        )

        def recover():
            damaged = golden.copy()
            damaged[1, 2, 3] ^= 1 << 9  # single-element corruption
            damaged[4] += 17  # whole-map smear
            report = check_output(damaged, predicted)
            assert not report.clean
            rec = recompute_flagged(
                damaged,
                report,
                data_codes,
                weight_codes,
                bias_codes,
                predicted,
                stride=s,
                pad=pad,
                groups=groups,
            )
            assert rec.clean_after
            return damaged, rec

        got_out, got_rec = recover()
        with on_the_oracle():
            want_out, want_rec = recover()
        assert np.array_equal(got_out, want_out)
        assert np.array_equal(got_out, golden)
        assert got_rec.recomputed == want_rec.recomputed
        assert got_rec.row_recomputes == want_rec.row_recomputes
        assert got_rec.map_recomputes == want_rec.map_recomputes
