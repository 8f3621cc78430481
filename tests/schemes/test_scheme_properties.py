"""Cross-scheme property tests: invariants every mapping must satisfy."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import AcceleratorConfig, CONFIG_16_16
from repro.errors import ScheduleError
from repro.schemes import CostTable, all_scheme_names, make_scheme

from tests.conftest import make_ctx

PRACTICAL = ("inter", "inter-improved", "intra", "partition", "pe2d")


def random_ctx(draw_tuple):
    k, s, d, dout, hw, groups = draw_tuple
    if k > hw or d % groups or dout % groups:
        return None
    return make_ctx(in_maps=d, out_maps=dout, kernel=k, stride=s, hw=hw, groups=groups)


layer_params = st.tuples(
    st.integers(1, 9),       # k
    st.integers(1, 4),       # s
    st.integers(1, 64),      # d
    st.integers(1, 64),      # dout
    st.integers(10, 40),     # hw
    st.sampled_from([1, 2]), # groups
)


class TestUniversalInvariants:
    @settings(deadline=None, max_examples=60)
    @given(params=layer_params, scheme=st.sampled_from(PRACTICAL))
    def test_core_invariants(self, params, scheme):
        ctx = random_ctx(params)
        if ctx is None:
            return
        try:
            r = make_scheme(scheme).schedule(ctx, CONFIG_16_16)
        except ScheduleError:
            return
        # MACs are exactly the layer's work
        assert r.useful_macs == ctx.macs
        # the array can physically perform the claimed MACs
        assert r.useful_macs <= r.operations * CONFIG_16_16.multipliers
        # wall-clock covers compute
        assert r.total_cycles >= r.operations
        # every receptive field must be read at least once (note: a strided
        # 1x1 conv legitimately never touches the skipped input pixels, so
        # the bound is per-output coverage, not the raw input size; pe2d
        # reads each touched input once per output map, which also covers it)
        out_pixels = ctx.out_shape.height * ctx.out_shape.width
        assert r.accesses["input"].loads >= out_pixels
        assert r.accesses["output"].stores >= ctx.out_shape.elements
        assert r.dram_words >= ctx.out_shape.elements

    @settings(deadline=None, max_examples=40)
    @given(params=layer_params)
    def test_wider_tout_never_slower_compute(self, params):
        """More output lanes can only reduce (or keep) compute cycles."""
        ctx = random_ctx(params)
        if ctx is None:
            return
        narrow = AcceleratorConfig(tin=16, tout=8)
        wide = AcceleratorConfig(tin=16, tout=32)
        for scheme in ("inter", "intra"):
            a = make_scheme(scheme).schedule(ctx, narrow)
            b = make_scheme(scheme).schedule(ctx, wide)
            assert b.operations <= a.operations, scheme

    @settings(deadline=None, max_examples=40)
    @given(params=layer_params)
    def test_improved_inter_pareto(self, params):
        """Sec 4.2.2 is a strict refinement: same cycles, never more
        weight-buffer loads."""
        ctx = random_ctx(params)
        if ctx is None:
            return
        orig = make_scheme("inter").schedule(ctx, CONFIG_16_16)
        impr = make_scheme("inter-improved").schedule(ctx, CONFIG_16_16)
        assert impr.operations == orig.operations
        assert impr.accesses["weight"].loads <= orig.accesses["weight"].loads

    @settings(deadline=None, max_examples=40)
    @given(params=layer_params)
    def test_partition_legality_boundary(self, params):
        """partition schedules exactly the s < k layers."""
        ctx = random_ctx(params)
        if ctx is None:
            return
        legal = ctx.layer.stride < ctx.layer.kernel
        assert CostTable(ctx, CONFIG_16_16).legal("partition") == legal

    @settings(deadline=None, max_examples=30)
    @given(params=layer_params)
    def test_all_schemes_consistent_macs(self, params):
        """Every legal scheme reports identical useful MACs (they compute
        the same convolution)."""
        ctx = random_ctx(params)
        if ctx is None:
            return
        macs = set()
        for name in all_scheme_names():
            try:
                macs.add(make_scheme(name).schedule(ctx, CONFIG_16_16).useful_macs)
            except ScheduleError:
                continue
        assert len(macs) == 1
