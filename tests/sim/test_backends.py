"""The functional simulator against its loop-nest oracle, bit for bit.

Production runs every conv path as batched im2col/GEMM and, when no fault
hook is attached, fuses the partitioned and inter-kernel accumulation
steps into one GEMM.  :mod:`tests.sim.loop_oracle` keeps the paper's loop
nests: one output pixel, window or kernel tap at a time, with every hook
site.  In the int64 code domain the two must agree byte for byte:
outputs, Algorithm 1's partial maps, the unrolled matrices, injected-fault
outputs and the fired-event lists (whose before/after values prove that a
psum hook sees the same live accumulator on both sides), and the 16-bit
datapath codes.  A seeded grid pins the edges the schemes distinguish —
1x1 kernels, k == s, s > k (the partition fallback), padding and grouped
convolution — and a hypothesis property draws further geometries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.fixedpoint import Q7_8
from repro.integrity.abft import predicted_checksums
from repro.integrity.sdc import SDCInjector
from repro.resilience.faults import BITFLIP_SITES, BitFlipFault, seeded_bitflips
from repro.sim.datapath import (
    conv_codes_direct,
    conv_codes_inter_improved,
    conv_codes_partitioned,
    requantize,
)
from repro.sim.functional import (
    conv_via_im2col,
    conv_via_inter_improved,
    conv_via_partition,
    partition_partial_maps,
    reference_conv,
)
from repro.tiling.unroll import conv_window_view, im2col, window_columns
from tests.sim import loop_oracle as oracle

#: (k, s, pad, groups, din, dout, hw) — edge geometries: 1x1, k == s,
#: s > k, stride/pad combos, grouped
EDGE_GRID = [
    (1, 1, 0, 1, 3, 4, 6),  # 1x1 kernel
    (2, 2, 0, 1, 3, 4, 8),  # k == s: partition degenerates
    (2, 3, 0, 1, 3, 4, 9),  # s > k: partition falls back to reference
    (3, 1, 1, 1, 3, 4, 8),
    (3, 2, 1, 2, 4, 6, 9),  # grouped + stride + pad
    (5, 2, 2, 1, 3, 6, 11),
    (11, 4, 0, 1, 3, 8, 19),  # AlexNet conv1 class
]

#: each production path beside the oracle's loop nest for it
PATHS = [
    (reference_conv, oracle.reference_conv),
    (conv_via_partition, oracle.conv_via_partition),
    (conv_via_im2col, oracle.conv_via_im2col),
    (conv_via_inter_improved, oracle.conv_via_inter_improved),
]

#: the scheme paths, which carry fault hooks
INJECT_PATHS = PATHS[1:]


def code_tensors(k, s, pad, groups, din, dout, hw, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(-(1 << 15), 1 << 15, (din, hw, hw), dtype=np.int64)
    weights = rng.integers(
        -(1 << 15), 1 << 15, (dout, din // groups, k, k), dtype=np.int64
    )
    bias = rng.integers(-(1 << 20), 1 << 20, (dout,), dtype=np.int64)
    return data, weights, bias


def injected_runs(pair, fault, data, weights, bias, s, pad, groups):
    """Run production and the oracle under fresh injectors holding the same
    fault; return both outputs and both fired-event lists."""
    outs, events = [], []
    for fn in pair:
        injector = SDCInjector([fault])
        outs.append(
            fn(data, weights, bias, stride=s, pad=pad, groups=groups, inject=injector)
        )
        # before/after capture the LIVE value at the hook site
        events.append([e.to_dict() for e in injector.events])
    return outs, events


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", EDGE_GRID)
    def test_vector_matches_loop_on_every_path(
        self, k, s, pad, groups, din, dout, hw, seed
    ):
        data, weights, bias = code_tensors(k, s, pad, groups, din, dout, hw, seed)
        for fn, loop in PATHS:
            want = loop(data, weights, bias, stride=s, pad=pad, groups=groups)
            got = fn(data, weights, bias, stride=s, pad=pad, groups=groups)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (fn.__name__, k, s, pad)

    @pytest.mark.parametrize("k,s,pad", [(3, 1, 0), (3, 1, 1), (5, 2, 1), (11, 4, 0)])
    def test_partial_maps_identical(self, k, s, pad):
        data, weights, _ = code_tensors(k, s, pad, 1, 3, 4, 4 * k, seed=5)
        want = oracle.partition_partial_maps(data, weights, s, pad)
        assert np.array_equal(partition_partial_maps(data, weights, s, pad), want)

    @pytest.mark.parametrize("k,s,pad", [(3, 1, 1), (5, 2, 0), (2, 2, 0)])
    def test_im2col_byte_identical_even_on_floats(self, k, s, pad):
        # unrolling is pure data movement: float matrices must match to
        # the byte, not merely allclose
        rng = np.random.default_rng(9)
        data = rng.standard_normal((3, 11, 11))
        want = oracle.im2col(data, k, s, pad)
        got = im2col(data, k, s, pad)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(
            got.view(np.uint64), want.view(np.uint64)
        ), "im2col diverged from the loop unroller at the byte level"

    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", EDGE_GRID[:5])
    def test_float_paths_allclose_across_backends(
        self, k, s, pad, groups, din, dout, hw
    ):
        # float operands only promise closeness (summation order differs)
        rng = np.random.default_rng(2)
        data = rng.standard_normal((din, hw, hw))
        weights = rng.standard_normal((dout, din // groups, k, k))
        for fn, loop in PATHS:
            want = loop(data, weights, None, stride=s, pad=pad, groups=groups)
            got = fn(data, weights, None, stride=s, pad=pad, groups=groups)
            assert np.allclose(got, want), fn.__name__


class TestInjectedFaultIdentity:
    """Injected-fault hook firings and corrupted outputs must match exactly.

    The psum hooks see live accumulators; if production changed the
    accumulation structure, the same seeded flip would corrupt a different
    value and the sweep verdicts would drift from the oracle's.
    """

    @pytest.mark.parametrize("site", BITFLIP_SITES)
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", EDGE_GRID[:6])
    def test_corrupted_outputs_identical(self, k, s, pad, groups, din, dout, hw, site):
        data, weights, bias = code_tensors(k, s, pad, groups, din, dout, hw, seed=1)
        for pi, pair in enumerate(INJECT_PATHS):
            fault = seeded_bitflips(k * 131 + s * 17 + pi, 1, sites=(site,))[0]
            (got, want), (got_events, want_events) = injected_runs(
                pair, fault, data, weights, bias, s, pad, groups
            )
            assert got_events == want_events, (pair[0].__name__, site)
            assert np.array_equal(got, want), (pair[0].__name__, site)


class TestDatapathIdentity:
    """The 16-bit integer datapath codes equal the oracle's orders followed
    by the same output stage."""

    DP_PATHS = [
        (conv_codes_direct, oracle.reference_conv),
        (conv_codes_partitioned, oracle.conv_via_partition),
        (conv_codes_inter_improved, oracle.conv_via_inter_improved),
    ]

    @pytest.mark.parametrize("k,s,pad", [(3, 1, 1), (5, 2, 1), (2, 2, 0), (11, 4, 0)])
    def test_codes_identical_across_backends(self, k, s, pad):
        rng = np.random.default_rng(4)
        data = rng.integers(-(1 << 7), 1 << 7, (3, 4 * k, 4 * k), dtype=np.int64)
        weights = rng.integers(-(1 << 7), 1 << 7, (4, 3, k, k), dtype=np.int64)
        bias = rng.integers(-(1 << 7), 1 << 7, (4,), dtype=np.int64)
        for fn, loop in self.DP_PATHS:
            # bias is a Qm.n code, aligned to the 2n-fraction accumulator
            acc = loop(data, weights, bias << Q7_8.frac_bits, s, pad)
            want = requantize(acc, Q7_8)
            assert np.array_equal(fn(data, weights, bias, stride=s, pad=pad), want)


class TestPrimitives:
    def test_window_columns_matches_loop_im2col_layout(self):
        data = np.arange(2 * 6 * 6, dtype=np.int64).reshape(2, 6, 6)
        win = conv_window_view(np.pad(data, ((0, 0), (1, 1), (1, 1))), 3, 2, 3, 3)
        assert np.array_equal(window_columns(win), oracle.im2col(data, 3, 2, 1))

    def test_conv_window_view_is_a_view(self):
        data = np.zeros((1, 8, 8))
        win = conv_window_view(data, 3, 1, 6, 6)
        assert win.base is not None
        data[0, 0, 0] = 7.0
        assert win[0, 0, 0, 0, 0] == 7.0


@st.composite
def geometries(draw):
    """(k, s, pad, groups, din, dout, hw): k 1-11, s 1-4, pad 0-2, groups 1
    or 2, depths up to 6 and one to four output rows and columns."""
    k = draw(st.integers(1, 11))
    s = draw(st.integers(1, 4))
    pad = draw(st.integers(0, 2))
    groups = draw(st.sampled_from((1, 2)))
    din = groups * draw(st.integers(1, 6 // groups))
    dout = groups * draw(st.integers(1, 6 // groups))
    out, extra = draw(st.integers(1, 4)), draw(st.integers(0, s - 1))
    hw = max(1, k - 2 * pad + (out - 1) * s + extra)
    return k, s, pad, groups, din, dout, hw


#: one single-bit flip anywhere: the injector takes the index modulo the
#: target's size and the step modulo the path's step count
FLIPS = st.builds(
    BitFlipFault,
    site=st.sampled_from(BITFLIP_SITES),
    index=st.integers(0, 2**20),
    bit=st.integers(0, 23),
    step=st.integers(0, 255),
)


class TestGeneratedGeometries:
    @settings(deadline=None, max_examples=60)
    @given(geometry=geometries(), seed=st.integers(0, 2**16), fault=FLIPS)
    # k == s, s > k (both the partition fallback) and the widest kernel,
    # each with a flip into the first accumulation step
    @example(geometry=(3, 3, 0, 1, 2, 3, 9), seed=0, fault=BitFlipFault("psum", 5, 9))
    @example(geometry=(2, 4, 1, 2, 4, 2, 9), seed=1, fault=BitFlipFault("psum", 7, 3))
    @example(geometry=(11, 1, 2, 2, 6, 6, 9), seed=2, fault=BitFlipFault("psum", 0, 20))
    def test_production_matches_the_oracle(self, geometry, seed, fault):
        k, s, pad, groups, din, dout, hw = geometry
        data, weights, bias = code_tensors(*geometry, seed=seed)
        for fn, loop in PATHS:
            want = loop(data, weights, bias, stride=s, pad=pad, groups=groups)
            got = fn(data, weights, bias, stride=s, pad=pad, groups=groups)
            assert np.array_equal(got, want), fn.__name__
        for pair in INJECT_PATHS:
            (got, want), (got_events, want_events) = injected_runs(
                pair, fault, data, weights, bias, s, pad, groups
            )
            assert got_events == want_events, pair[0].__name__
            assert np.array_equal(got, want), pair[0].__name__
        if s < k:
            for g in range(groups):
                dslice = data[g * (din // groups) : (g + 1) * (din // groups)]
                wslice = weights[g * (dout // groups) : (g + 1) * (dout // groups)]
                assert np.array_equal(
                    partition_partial_maps(dslice, wslice, s, pad),
                    oracle.partition_partial_maps(dslice, wslice, s, pad),
                )
        got_sums = predicted_checksums(data, weights, bias, s, pad, groups)
        want_sums = oracle.predicted_checksums(data, weights, bias, s, pad, groups)
        for field in ("row", "col", "total"):
            assert np.array_equal(getattr(got_sums, field), getattr(want_sums, field))
