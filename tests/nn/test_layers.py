"""Unit tests for layer descriptors and shape inference."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    FCLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    TensorShape,
    conv_output_hw,
)


class TestTensorShape:
    def test_elements(self):
        assert TensorShape(3, 4, 5).elements == 60

    def test_bytes_16bit(self):
        assert TensorShape(3, 4, 5).bytes() == 120

    def test_bytes_custom_word(self):
        assert TensorShape(2, 2, 2).bytes(word_bytes=4) == 32

    def test_as_tuple(self):
        assert TensorShape(1, 2, 3).as_tuple() == (1, 2, 3)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ShapeError):
            TensorShape(*bad)


class TestConvOutputHw:
    def test_alexnet_conv1(self):
        assert conv_output_hw(227, 11, 4, 0) == 55

    def test_vgg_same_padding(self):
        assert conv_output_hw(224, 3, 1, 1) == 224

    def test_googlenet_conv1(self):
        assert conv_output_hw(224, 7, 2, 3) == 112

    def test_kernel_too_big(self):
        with pytest.raises(ShapeError):
            conv_output_hw(4, 5, 1, 0)

    def test_pad_rescues_kernel(self):
        assert conv_output_hw(4, 5, 1, 1) == 2

    def test_zero_stride_rejected(self):
        with pytest.raises(ShapeError):
            conv_output_hw(8, 3, 0, 0)

    @given(
        hw=st.integers(4, 64),
        k=st.integers(1, 7),
        s=st.integers(1, 4),
        pad=st.integers(0, 3),
    )
    def test_output_fits_input(self, hw, k, s, pad):
        if k > hw + 2 * pad:
            return
        out = conv_output_hw(hw, k, s, pad)
        assert out >= 1
        # the last window must stay inside the padded input
        assert (out - 1) * s + k <= hw + 2 * pad


class TestConvLayer:
    def test_output_shape_alexnet_conv1(self):
        layer = ConvLayer("c1", in_maps=3, out_maps=96, kernel=11, stride=4)
        out = layer.output_shape(TensorShape(3, 227, 227))
        assert out.as_tuple() == (96, 55, 55)

    def test_macs(self):
        layer = ConvLayer("c", in_maps=2, out_maps=4, kernel=3)
        # out 6x6, 3*3*2 per output element, 4 maps
        assert layer.macs(TensorShape(2, 8, 8)) == 36 * 9 * 2 * 4

    def test_macs_grouped_halves(self):
        plain = ConvLayer("p", in_maps=4, out_maps=4, kernel=3)
        grouped = ConvLayer("g", in_maps=4, out_maps=4, kernel=3, groups=2)
        shape = TensorShape(4, 8, 8)
        assert grouped.macs(shape) == plain.macs(shape) // 2

    def test_weight_count_with_bias(self):
        layer = ConvLayer("c", in_maps=2, out_maps=4, kernel=3)
        assert layer.weight_count(TensorShape(2, 8, 8)) == 9 * 2 * 4 + 4

    def test_weight_count_without_bias(self):
        layer = ConvLayer("c", in_maps=2, out_maps=4, kernel=3, bias=False)
        assert layer.weight_count(TensorShape(2, 8, 8)) == 9 * 2 * 4

    def test_depth_mismatch_rejected(self):
        layer = ConvLayer("c", in_maps=2, out_maps=4, kernel=3)
        with pytest.raises(ShapeError):
            layer.output_shape(TensorShape(3, 8, 8))

    def test_groups_must_divide(self):
        with pytest.raises(ShapeError):
            ConvLayer("c", in_maps=3, out_maps=4, kernel=3, groups=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(in_maps=0, out_maps=4, kernel=3),
            dict(in_maps=2, out_maps=4, kernel=0),
            dict(in_maps=2, out_maps=4, kernel=3, stride=0),
            dict(in_maps=2, out_maps=4, kernel=3, pad=-1),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ShapeError):
            ConvLayer("c", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # a bool kernel used to plan as a 1x1 layer, a fractional
            # stride as a 145.0-pixel output map
            (dict(kernel=True, stride=1), "kernel must be a positive int, got True"),
            (dict(kernel=11, stride=1.5), "stride must be a positive int, got 1.5"),
        ],
    )
    def test_standalone_geometry_must_be_integer(self, kwargs, message):
        from repro.nn.network import standalone_conv

        with pytest.raises(ShapeError, match=message):
            standalone_conv(3, 96, hw=227, **kwargs)


class TestPoolLayer:
    def test_alexnet_pool(self):
        layer = PoolLayer("p", kernel=3, stride=2)
        assert layer.output_shape(TensorShape(96, 55, 55)).as_tuple() == (96, 27, 27)

    def test_ceil_mode_rounds_up(self):
        floor_pool = PoolLayer("p", kernel=3, stride=2)
        ceil_pool = PoolLayer("p", kernel=3, stride=2, ceil_mode=True)
        shape = TensorShape(64, 112, 112)
        assert floor_pool.output_shape(shape).height == 55
        assert ceil_pool.output_shape(shape).height == 56

    def test_zero_macs_and_weights(self):
        layer = PoolLayer("p", kernel=2, stride=2)
        shape = TensorShape(4, 8, 8)
        assert layer.macs(shape) == 0
        assert layer.weight_count(shape) == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ShapeError):
            PoolLayer("p", kernel=2, stride=2, mode="median")


class TestFCLayer:
    def test_flattens(self):
        layer = FCLayer("fc", out_features=10)
        assert layer.output_shape(TensorShape(4, 3, 3)).as_tuple() == (10, 1, 1)

    def test_macs(self):
        layer = FCLayer("fc", out_features=10)
        assert layer.macs(TensorShape(4, 3, 3)) == 36 * 10

    def test_weight_count(self):
        layer = FCLayer("fc", out_features=10)
        assert layer.weight_count(TensorShape(4, 3, 3)) == 360 + 10


class TestPassThroughLayers:
    @pytest.mark.parametrize(
        "layer", [ReLULayer("r"), LRNLayer("n", local_size=5)]
    )
    def test_shape_preserved(self, layer):
        shape = TensorShape(7, 5, 5)
        assert layer.output_shape(shape) == shape
        assert layer.macs(shape) == 0
        assert layer.weight_count(shape) == 0


class TestConcatLayer:
    def test_output_depth(self):
        layer = ConcatLayer("cat", branch_depths=(64, 128, 32, 32))
        assert layer.output_depth() == 256

    def test_output_shape_uses_spatial_of_input(self):
        layer = ConcatLayer("cat", branch_depths=(2, 3))
        out = layer.output_shape(TensorShape(2, 9, 9))
        assert out.as_tuple() == (5, 9, 9)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ConcatLayer("cat", branch_depths=())
