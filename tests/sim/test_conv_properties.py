"""Bit-identical equivalence of every conv path, in the integer-code domain.

`test_functional.py` already checks float equivalence within tolerance;
these tests make the stronger claim the ABFT guard depends on: on int64
codes the three scheme executions are *bit-identical* to the reference —
integer accumulation is exact and associative, so summation order cannot
leak into the result.  The claim is checked on both executions: ``vector``,
production, and ``loop``, the paper's loop nests kept as tier-1's oracle
in :mod:`tests.sim.loop_oracle`.  Without a hook production's partitioned
and inter-kernel paths fuse into the reference GEMM, so each path also
runs under a fault-free :class:`SDCInjector`, which makes it take its
stepwise order (Algorithm 1's piece steps, the ``(u, v)`` add-and-store
steps).  The seeded grid crosses odd/even kernels, stride > kernel (the
partition fallback), padding and grouped convolution, with no dependency
beyond numpy and pytest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.integrity.sdc import SDCInjector
from repro.nn.layers import ConvLayer, TensorShape
from repro.sim.functional import (
    conv_via_im2col,
    conv_via_inter_improved,
    conv_via_partition,
    random_conv_tensors,
    reference_conv,
)
from tests.sim import loop_oracle as oracle

#: (k, s, pad, groups, din, dout, hw) — every geometry class the schemes
#: distinguish: odd/even k, s > 1, s > k, pad > 0, groups > 1, and combos
GRID = [
    (1, 1, 0, 1, 3, 4, 6),
    (2, 1, 0, 1, 4, 4, 7),
    (3, 1, 0, 1, 3, 4, 8),
    (3, 1, 1, 1, 3, 4, 8),
    (3, 2, 1, 1, 3, 4, 9),
    (4, 2, 1, 1, 3, 4, 10),
    (5, 2, 2, 1, 3, 6, 11),
    (2, 3, 0, 1, 3, 4, 9),  # s > k: partition falls back
    (3, 4, 0, 1, 3, 4, 11),  # s > k, odd kernel
    (3, 1, 1, 2, 4, 6, 8),  # grouped
    (5, 2, 1, 2, 4, 8, 11),  # grouped + stride + pad
    (11, 4, 0, 1, 3, 8, 19),  # AlexNet conv1 shape class
]

#: each execution's direct convolution and its three scheme paths
EXECUTIONS = {
    "loop": (
        oracle.reference_conv,
        [
            oracle.conv_via_partition,
            oracle.conv_via_im2col,
            oracle.conv_via_inter_improved,
        ],
    ),
    "vector": (
        reference_conv,
        [conv_via_partition, conv_via_im2col, conv_via_inter_improved],
    ),
}


def code_tensors(k, s, pad, groups, din, dout, hw, seed):
    """Integer-code operands: int64 with a dynamic range that cannot overflow."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-(1 << 15), 1 << 15, (din, hw, hw), dtype=np.int64)
    weights = rng.integers(
        -(1 << 15), 1 << 15, (dout, din // groups, k, k), dtype=np.int64
    )
    bias = rng.integers(-(1 << 20), 1 << 20, (dout,), dtype=np.int64)
    return data, weights, bias


class TestBitIdenticalEquivalence:
    @pytest.mark.parametrize("execution", ["loop", "vector"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GRID)
    def test_all_paths_match_reference_exactly(
        self, k, s, pad, groups, din, dout, hw, seed, execution
    ):
        reference, paths = EXECUTIONS[execution]
        data, weights, bias = code_tensors(k, s, pad, groups, din, dout, hw, seed)
        ref = reference(data, weights, bias, stride=s, pad=pad, groups=groups)
        assert ref.dtype == np.int64
        for path in paths:
            for hook in (None, SDCInjector([])):
                out = path(
                    data, weights, bias, stride=s, pad=pad, groups=groups, inject=hook
                )
                assert out.dtype == np.int64, path.__name__
                assert np.array_equal(out, ref), (path.__name__, k, s, pad, groups)

    @pytest.mark.parametrize("execution", ["loop", "vector"])
    @pytest.mark.parametrize("k,s,pad,groups,din,dout,hw", GRID[:6])
    def test_no_bias_also_exact(self, k, s, pad, groups, din, dout, hw, execution):
        reference, paths = EXECUTIONS[execution]
        data, weights, _ = code_tensors(k, s, pad, groups, din, dout, hw, seed=7)
        ref = reference(data, weights, None, stride=s, pad=pad, groups=groups)
        for path in paths:
            for hook in (None, SDCInjector([])):
                out = path(
                    data, weights, None, stride=s, pad=pad, groups=groups, inject=hook
                )
                assert np.array_equal(out, ref), path.__name__


class TestRandomConvTensors:
    def test_same_seed_same_tensors(self):
        layer = ConvLayer("c", in_maps=3, out_maps=4, kernel=3)
        shape = TensorShape(3, 8, 8)
        a = random_conv_tensors(layer, shape, seed=11)
        b = random_conv_tensors(layer, shape, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        layer = ConvLayer("c", in_maps=3, out_maps=4, kernel=3)
        shape = TensorShape(3, 8, 8)
        a = random_conv_tensors(layer, shape, seed=1)
        b = random_conv_tensors(layer, shape, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_explicit_rng_overrides_seed(self):
        layer = ConvLayer("c", in_maps=3, out_maps=4, kernel=3)
        shape = TensorShape(3, 8, 8)
        a = random_conv_tensors(layer, shape, rng=np.random.default_rng(5))
        b = random_conv_tensors(layer, shape, seed=999, rng=np.random.default_rng(5))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_dtype_guarantee_is_float64(self):
        layer = ConvLayer("c", in_maps=3, out_maps=4, kernel=3)
        data, weights, bias = random_conv_tensors(layer, TensorShape(3, 8, 8))
        assert data.dtype == np.float64
        assert weights.dtype == np.float64
        assert bias.dtype == np.float64

    def test_no_global_seed_pollution(self):
        layer = ConvLayer("c", in_maps=3, out_maps=4, kernel=3)
        np.random.seed(0)
        before = np.random.get_state()[1][:4].copy()
        random_conv_tensors(layer, TensorShape(3, 8, 8), seed=42)
        after = np.random.get_state()[1][:4]
        assert np.array_equal(before, after)
