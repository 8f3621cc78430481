"""Functional equivalence tests: every scheme's loop nest == reference conv.

This is the reproduction of the paper's Fig. 5(d) correctness claim, plus
the analogous claims for the improved inter-kernel order and the unrolled
intra-kernel order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn.layers import ConvLayer, TensorShape
from repro.sim.functional import (
    conv_via_im2col,
    conv_via_inter_improved,
    conv_via_partition,
    partition_partial_maps,
    random_conv_tensors,
    reference_conv,
)


def tensors(k, s, pad, groups, din, dout, hw, seed=0):
    layer = ConvLayer(
        "t", in_maps=din, out_maps=dout, kernel=k, stride=s, pad=pad, groups=groups
    )
    return random_conv_tensors(layer, TensorShape(din, hw, hw), seed=seed)


class TestReference:
    def test_identity_kernel(self):
        data = np.random.default_rng(0).standard_normal((1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = reference_conv(data, w, None, 1, 1)
        assert np.allclose(out[0], data[0])

    def test_bias_added(self):
        data = np.zeros((1, 4, 4))
        w = np.zeros((2, 1, 1, 1))
        out = reference_conv(data, w, np.array([1.5, -2.0]), 1, 0)
        assert np.all(out[0] == 1.5)
        assert np.all(out[1] == -2.0)

    def test_stride_downsamples(self):
        data, w, b = tensors(3, 2, 0, 1, 2, 4, 9)
        assert reference_conv(data, w, b, 2, 0).shape == (4, 4, 4)

    def test_group_isolation(self):
        """Group 0's outputs must not see group 1's inputs."""
        data = np.zeros((2, 5, 5))
        data[1] = 100.0  # only group 1's input is hot
        w = np.ones((2, 1, 3, 3))
        out = reference_conv(data, w, None, 1, 0, groups=2)
        assert np.all(out[0] == 0.0)
        assert np.all(out[1] == 900.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            reference_conv(np.ones((2, 4, 4)), np.ones((4, 3, 3, 3)), None, 1, 0)
        with pytest.raises(ShapeError):
            reference_conv(np.ones((2, 4, 4)), np.ones((4, 2, 3, 2)), None, 1, 0)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("stride", 0),
            ("stride", True),
            ("stride", 1.0),
            ("pad", -1),
            ("pad", False),
            ("pad", 0.5),
            ("groups", 0),
            ("groups", -2),
            ("groups", True),
            ("groups", 2.0),
            ("groups", 3),  # divides neither depth
        ],
    )
    @pytest.mark.parametrize(
        "path",
        [reference_conv, conv_via_im2col, conv_via_partition, conv_via_inter_improved],
    )
    def test_bad_stride_pad_groups_named(self, path, name, value):
        args = {"stride": 1, "pad": 0, "groups": 1, name: value}
        with pytest.raises(ShapeError, match=f"{name}.*{value!r}"):
            path(np.ones((4, 6, 6)), np.ones((4, 4, 3, 3)), None, **args)

    def test_numpy_integers_accepted(self):
        data, w, b = tensors(3, 2, 1, 2, 4, 4, 9)
        want = reference_conv(data, w, b, 2, 1, groups=2)
        got = reference_conv(data, w, b, np.int64(2), np.int32(1), groups=np.int8(2))
        assert np.array_equal(got, want)


class TestEquivalenceFixedCases:
    """The paper's own geometries."""

    CASES = [
        ("alexnet-conv1", 11, 4, 0, 1, 3, 8, 35),
        ("alexnet-conv2", 5, 1, 2, 2, 8, 8, 13),
        ("vgg-conv", 3, 1, 1, 1, 4, 6, 10),
        ("googlenet-conv1", 7, 2, 3, 1, 3, 4, 21),
        ("1x1-reduce", 1, 1, 0, 1, 8, 4, 7),
        ("k-equals-s", 4, 4, 0, 1, 2, 4, 16),
    ]

    @pytest.mark.parametrize("name,k,s,pad,g,din,dout,hw", CASES)
    def test_im2col(self, name, k, s, pad, g, din, dout, hw):
        data, w, b = tensors(k, s, pad, g, din, dout, hw)
        ref = reference_conv(data, w, b, s, pad, g)
        assert np.allclose(conv_via_im2col(data, w, b, s, pad, g), ref)

    @pytest.mark.parametrize("name,k,s,pad,g,din,dout,hw", CASES)
    def test_inter_improved(self, name, k, s, pad, g, din, dout, hw):
        data, w, b = tensors(k, s, pad, g, din, dout, hw)
        ref = reference_conv(data, w, b, s, pad, g)
        assert np.allclose(conv_via_inter_improved(data, w, b, s, pad, g), ref)

    @pytest.mark.parametrize(
        "name,k,s,pad,g,din,dout,hw",
        [c for c in CASES if c[2] < c[1]],  # s < k only
    )
    def test_partition(self, name, k, s, pad, g, din, dout, hw):
        data, w, b = tensors(k, s, pad, g, din, dout, hw)
        ref = reference_conv(data, w, b, s, pad, g)
        assert np.allclose(conv_via_partition(data, w, b, s, pad, g), ref)


class TestPartitionStructure:
    def test_fig5_piece_count(self):
        """AlexNet conv1: 9 partial maps of 55x55... scaled-down here."""
        data, w, _ = tensors(11, 4, 0, 1, 3, 4, 35)
        partials = partition_partial_maps(data, w, 4)
        assert partials.shape[0] == 9

    def test_partials_sum_to_reference(self):
        data, w, _ = tensors(5, 2, 0, 1, 2, 3, 15)
        partials = partition_partial_maps(data, w, 2)
        ref = reference_conv(data, w, None, 2, 0)
        assert np.allclose(partials.sum(axis=0), ref)

    def test_first_piece_is_topleft_subkernel_conv(self):
        """Piece (0,0) must equal convolving with only the top-left ks x ks
        corner of the kernel."""
        data, w, _ = tensors(5, 2, 0, 1, 1, 1, 11)
        partials = partition_partial_maps(data, w, 2)
        corner = np.zeros_like(w)
        corner[..., :2, :2] = w[..., :2, :2]
        ref = reference_conv(data, corner, None, 2, 0)
        assert np.allclose(partials[0], ref)


class TestEquivalenceProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        k=st.integers(2, 7),
        s=st.integers(1, 4),
        pad=st.integers(0, 2),
        din=st.integers(1, 4),
        dout=st.integers(1, 6),
        hw=st.integers(8, 18),
        seed=st.integers(0, 10_000),
    )
    def test_partition_equals_reference(self, k, s, pad, din, dout, hw, seed):
        if s >= k or k > hw + 2 * pad:
            return
        data, w, b = tensors(k, s, pad, 1, din, dout, hw, seed=seed)
        ref = reference_conv(data, w, b, s, pad)
        out = conv_via_partition(data, w, b, s, pad)
        assert np.allclose(out, ref, atol=1e-9)

    @settings(deadline=None, max_examples=25)
    @given(
        k=st.integers(1, 7),
        s=st.integers(1, 4),
        pad=st.integers(0, 2),
        din=st.integers(1, 4),
        dout=st.integers(1, 6),
        hw=st.integers(8, 18),
        seed=st.integers(0, 10_000),
    )
    def test_all_orders_agree(self, k, s, pad, din, dout, hw, seed):
        if k > hw + 2 * pad:
            return
        data, w, b = tensors(k, s, pad, 1, din, dout, hw, seed=seed)
        ref = reference_conv(data, w, b, s, pad)
        assert np.allclose(conv_via_im2col(data, w, b, s, pad), ref, atol=1e-9)
        assert np.allclose(
            conv_via_inter_improved(data, w, b, s, pad), ref, atol=1e-9
        )
