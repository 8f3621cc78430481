"""Auxiliary (non-conv) layer schedule tests."""

import math

import pytest

from repro.errors import ScheduleError
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    FCLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    TensorShape,
)
from repro.nn.network import LayerContext
from repro.schemes import CostTable
from repro.schemes.auxiliary import schedule_auxiliary

from tests.conftest import make_ctx


def aux_ctx(layer, in_shape):
    return LayerContext(layer, in_shape, layer.output_shape(in_shape))


class TestPool:
    def test_cycles(self, cfg16):
        ctx = aux_ctx(PoolLayer("p", kernel=3, stride=2), TensorShape(32, 27, 27))
        r = schedule_auxiliary(ctx, cfg16)
        # 13x13 outputs, ceil(9/16)=1 lane-cycle, ceil(32/16)=2 channel chunks
        assert r.operations == 169 * 1 * 2
        assert r.scheme == "aux-pool"
        assert r.useful_macs == 0

    def test_traffic(self, cfg16):
        ctx = aux_ctx(PoolLayer("p", kernel=2, stride=2), TensorShape(8, 8, 8))
        r = schedule_auxiliary(ctx, cfg16)
        assert r.accesses["input"].loads == 16 * 4 * 8
        assert r.accesses["output"].stores == 8 * 16


class TestFc:
    def test_cycles_and_macs(self, cfg16):
        ctx = aux_ctx(FCLayer("fc", out_features=64), TensorShape(32, 4, 4))
        r = schedule_auxiliary(ctx, cfg16)
        assert r.operations == math.ceil(512 / 16) * math.ceil(64 / 16)
        assert r.useful_macs == 512 * 64

    def test_fc_is_dma_bound(self, cfg16):
        """Batch-1 FC streams every weight once: memory bound."""
        ctx = aux_ctx(FCLayer("fc6", out_features=4096), TensorShape(256, 6, 6))
        r = schedule_auxiliary(ctx, cfg16)
        assert r.dma_cycles > r.operations
        assert r.total_cycles == pytest.approx(r.dma_cycles)

    def test_weights_loaded_once(self, cfg16):
        ctx = aux_ctx(FCLayer("fc", out_features=10), TensorShape(4, 2, 2))
        r = schedule_auxiliary(ctx, cfg16)
        assert r.accesses["weight"].loads == 160


class TestElementwise:
    def test_lrn_one_element_per_cycle(self, cfg16):
        ctx = aux_ctx(LRNLayer("n"), TensorShape(16, 10, 10))
        r = schedule_auxiliary(ctx, cfg16)
        assert r.operations == 1600

    def test_relu_is_free(self, cfg16):
        ctx = aux_ctx(ReLULayer("r"), TensorShape(16, 10, 10))
        r = schedule_auxiliary(ctx, cfg16)
        assert r.total_cycles == 0
        assert r.buffer_accesses == 0

    def test_concat_is_free(self, cfg16):
        layer = ConcatLayer("cat", branch_depths=(4, 4))
        ctx = LayerContext(
            layer, TensorShape(4, 6, 6), layer.output_shape(TensorShape(4, 6, 6))
        )
        r = schedule_auxiliary(ctx, cfg16)
        assert r.total_cycles == 0


class TestDispatch:
    def test_supports(self, cfg16):
        relu = aux_ctx(ReLULayer("r"), TensorShape(1, 2, 2))
        assert CostTable(relu, cfg16).auxiliary(relu, cfg16).scheme == "aux-relu"
        conv = make_ctx()
        with pytest.raises(ScheduleError, match="auxiliary scheduler does not handle"):
            CostTable(conv, cfg16).auxiliary(conv, cfg16)

    def test_conv_rejected(self, cfg16):
        with pytest.raises(ScheduleError):
            schedule_auxiliary(make_ctx(), cfg16)


class TestWholeNetworkInclusion:
    def test_full_run_has_all_layers(self, alexnet, cfg16):
        from repro.adaptive import plan_network

        full = plan_network(alexnet, cfg16, "adaptive-2", include_non_conv=True)
        assert len(full.layers) == len(alexnet)

    def test_conv_dominates_macs_not_time(self, alexnet, cfg16):
        """The paper's 90%-of-workload claim is about MACs; batch-1 FC
        layers are DMA-bound and dominate *time* on this buffer budget."""
        from repro.adaptive import plan_network

        conv = plan_network(alexnet, cfg16, "adaptive-2")
        full = plan_network(alexnet, cfg16, "adaptive-2", include_non_conv=True)
        assert conv.total_macs / full.total_macs > 0.9
        assert full.total_cycles > conv.total_cycles

    def test_conv_only_totals_unchanged(self, alexnet, cfg16):
        from repro.adaptive import plan_network

        conv = plan_network(alexnet, cfg16, "adaptive-2")
        full = plan_network(alexnet, cfg16, "adaptive-2", include_non_conv=True)
        conv_in_full = [r for r in full.layers if not r.scheme.startswith("aux-")]
        assert sum(r.total_cycles for r in conv_in_full) == pytest.approx(
            sum(r.total_cycles for r in conv.layers)
        )
