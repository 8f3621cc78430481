"""Unit tests for the Network DAG container."""

import pytest

from repro.errors import ShapeError
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    PoolLayer,
    ReLULayer,
    TensorShape,
)
from repro.nn.network import Network


def small_net() -> Network:
    net = Network("small", TensorShape(3, 16, 16))
    net.add(ConvLayer("c1", in_maps=3, out_maps=8, kernel=3, pad=1))
    net.add(ReLULayer("r1"))
    net.add(PoolLayer("p1", kernel=2, stride=2))
    net.add(ConvLayer("c2", in_maps=8, out_maps=16, kernel=3, pad=1))
    return net


class TestConstruction:
    def test_sequential_default_wiring(self):
        net = small_net()
        assert net.input_names("r1") == ("c1",)
        assert net.input_names("c1") == ("__input__",)

    def test_shapes_propagate(self):
        net = small_net()
        assert net.shape_of("c1").as_tuple() == (8, 16, 16)
        assert net.shape_of("p1").as_tuple() == (8, 8, 8)
        assert net.shape_of("c2").as_tuple() == (16, 8, 8)

    def test_duplicate_name_rejected(self):
        net = small_net()
        with pytest.raises(ShapeError):
            net.add(ConvLayer("c1", in_maps=16, out_maps=8, kernel=1))

    def test_unknown_input_rejected(self):
        net = small_net()
        with pytest.raises(ShapeError):
            net.add(
                ConvLayer("cx", in_maps=16, out_maps=8, kernel=1),
                inputs=["nope"],
            )

    def test_depth_mismatch_rejected_at_add(self):
        net = small_net()
        with pytest.raises(ShapeError):
            net.add(ConvLayer("cx", in_maps=99, out_maps=8, kernel=1))

    def test_len_and_iter(self):
        net = small_net()
        assert len(net) == 4
        assert [l.name for l in net] == ["c1", "r1", "p1", "c2"]


class TestBranching:
    def build_branched(self) -> Network:
        net = Network("branchy", TensorShape(4, 8, 8))
        net.add(ConvLayer("a", in_maps=4, out_maps=6, kernel=1), inputs=["__input__"])
        net.add(ConvLayer("b", in_maps=4, out_maps=10, kernel=3, pad=1), inputs=["__input__"])
        net.add(
            ConcatLayer("cat", branch_depths=(6, 10)),
            inputs=["a", "b"],
        )
        return net

    def test_concat_depth(self):
        net = self.build_branched()
        assert net.shape_of("cat").as_tuple() == (16, 8, 8)

    def test_concat_checks_declared_depths(self):
        net = self.build_branched()
        with pytest.raises(ShapeError):
            net.add(ConcatLayer("cat2", branch_depths=(6, 99)), inputs=["a", "b"])

    def test_concat_checks_spatial_agreement(self):
        net = self.build_branched()
        net.add(PoolLayer("shrink", kernel=2, stride=2), inputs=["a"])
        with pytest.raises(ShapeError):
            net.add(
                ConcatLayer("cat3", branch_depths=(6, 10)),
                inputs=["shrink", "b"],
            )

    def test_non_concat_multi_input_rejected(self):
        net = self.build_branched()
        with pytest.raises(ShapeError):
            net.add(ReLULayer("r"), inputs=["a", "b"])


class TestQueries:
    def test_conv_contexts(self):
        net = small_net()
        contexts = net.conv_contexts()
        assert [c.name for c in contexts] == ["c1", "c2"]
        assert contexts[1].in_shape.as_tuple() == (8, 8, 8)

    def test_conv1(self):
        assert small_net().conv1().name == "c1"

    def test_conv1_missing(self):
        net = Network("noconv", TensorShape(1, 4, 4))
        net.add(ReLULayer("r"))
        with pytest.raises(ShapeError):
            net.conv1()

    def test_layer_lookup(self):
        net = small_net()
        assert net.layer("p1").kernel == 2
        with pytest.raises(KeyError):
            net.layer("zzz")

    def test_contexts_persist_until_the_next_add(self):
        """Contexts (and so their cached geometry keys) are built once per
        shape of the graph; a caller's list is its own."""
        net = small_net()
        first = net.contexts()
        first.clear()
        again = net.contexts()
        assert [c.name for c in again] == ["c1", "r1", "p1", "c2"]
        assert all(a is b for a, b in zip(again, net.contexts()))
        net.add(ReLULayer("r2"))
        grown = net.contexts()
        assert [c.name for c in grown] == ["c1", "r1", "p1", "c2", "r2"]
        assert grown[0] is not again[0]

    def test_geometry_key_ignores_the_name(self):
        net = small_net()
        twin = Network("twin", TensorShape(3, 16, 16))
        twin.add(ConvLayer("other", in_maps=3, out_maps=8, kernel=3, pad=1))
        assert twin.conv1().geometry_key == net.conv1().geometry_key
        assert net.conv_contexts()[1].geometry_key != net.conv1().geometry_key

    def test_context_macs_match_layer(self):
        net = small_net()
        ctx = net.conv_contexts()[0]
        assert ctx.macs == ctx.layer.macs(ctx.in_shape)

    def test_summary(self):
        s = small_net().summary()
        assert s.conv_layers == 2
        assert s.kernel_sizes == (3,)
        assert s.total_macs > 0
        assert s.conv1.name == "c1"
