"""Scheme base-layer tests: geometry, result record, access counts."""

import pickle

import pytest

from repro.arch.buffers import AccessCounter
from repro.arch.config import CONFIG_16_16
from repro.errors import ScheduleError
from repro.nn.layers import PoolLayer, TensorShape
from repro.nn.network import LayerContext
from repro.schemes import CostTable, make_scheme
from repro.schemes.base import FrozenDict, ScheduleResult, group_geometry

from tests.conftest import make_ctx


class TestGroupGeometry:
    def test_plain(self):
        geom = group_geometry(make_ctx(in_maps=6, out_maps=8, kernel=3, hw=10))
        assert geom.groups == 1
        assert geom.d == 6
        assert geom.dout_g == 8
        assert (geom.ox, geom.oy) == (8, 8)
        assert geom.out_pixels == 64

    def test_grouped_alexnet_conv2_quotes_48(self, alexnet):
        geom = group_geometry(
            [c for c in alexnet.conv_contexts() if c.name == "conv2"][0]
        )
        assert geom.groups == 2
        assert geom.d == 48  # the paper's 'Din=48' for c2
        assert geom.dout_g == 128

    def test_macs_match_layer(self):
        ctx = make_ctx(in_maps=4, out_maps=8, kernel=3, pad=1, groups=2, hw=12)
        assert group_geometry(ctx).macs == ctx.macs

    def test_non_conv_rejected(self):
        layer = PoolLayer("p", kernel=2, stride=2)
        shape = TensorShape(4, 8, 8)
        ctx = LayerContext(layer, shape, layer.output_shape(shape))
        with pytest.raises(ScheduleError):
            group_geometry(ctx)


class TestAccessCounts:
    def test_negative(self):
        with pytest.raises(ScheduleError, match="loads=-1"):
            AccessCounter(loads=-1)
        with pytest.raises(ScheduleError, match="stores=-2"):
            AccessCounter(loads=3, stores=-2)

    def test_negative_row_count_refuses_the_record(self, cfg16):
        """A record's counters are built on first read, so the row's counts
        are checked when the record is built, from a table or by hand."""
        ctx = make_ctx()
        table = CostTable(ctx, cfg16)
        row = table.row("intra")._replace(input_loads=-1)
        table._rows["intra"] = row
        with pytest.raises(ScheduleError, match="input_loads=-1"):
            table.result("intra", ctx, cfg16)
        with pytest.raises(ScheduleError, match="input_loads=-1"):
            ScheduleResult("intra", ctx.name, cfg16, row)


class TestScheduleResult:
    def test_total_cycles_compute_bound(self, cfg16):
        ctx = make_ctx(in_maps=64, out_maps=64, kernel=3, pad=1, hw=16)
        r = make_scheme("inter").schedule(ctx, cfg16)
        assert r.total_cycles == max(r.operations, r.stream_cycles)

    def test_utilization_bounds(self, cfg16, all_networks):
        for net in all_networks:
            for ctx in net.conv_contexts():
                for name in ("ideal", "inter", "intra", "partition"):
                    scheme = make_scheme(name)
                    try:
                        r = scheme.schedule(ctx, cfg16)
                    except ScheduleError:
                        continue
                    assert 0.0 < r.utilization <= 1.0, (net.name, ctx.name, name)

    def test_milliseconds(self, cfg16):
        ctx = make_ctx()
        r = make_scheme("ideal").schedule(ctx, cfg16)
        assert r.milliseconds() == pytest.approx(
            r.total_cycles / cfg16.frequency_hz * 1e3
        )

    def test_buffer_access_bits_is_16x_words(self, cfg16):
        ctx = make_ctx()
        r = make_scheme("inter").schedule(ctx, cfg16)
        assert r.buffer_access_bits == 16 * r.buffer_accesses

    def test_supports(self, cfg16):
        assert CostTable(make_ctx(kernel=3, stride=1), cfg16).legal("partition")
        assert not CostTable(make_ctx(kernel=1, stride=1), cfg16).legal("partition")

    def test_frozen_dict_refuses_mutation_and_pickles(self):
        d = FrozenDict(a=1)
        for mutate in (
            lambda: d.__setitem__("a", 2),
            lambda: d.__delitem__("a"),
            lambda: d.update(b=2),
            lambda: d.setdefault("b", 2),
            lambda: d.pop("a"),
            lambda: d.popitem(),
            lambda: d.clear(),
        ):
            with pytest.raises(TypeError):
                mutate()
        with pytest.raises(TypeError):
            d |= {"b": 2}
        clone = pickle.loads(pickle.dumps(d))
        assert clone == {"a": 1} and type(clone) is FrozenDict
