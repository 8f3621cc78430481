"""Schedule-cache correctness: cached == uncached, keys never collide."""

from __future__ import annotations

import dataclasses

import pytest

from repro.adaptive.planner import POLICY_NAMES, plan_network
from repro.arch.buffers import AccessCounter
from repro.arch.config import CONFIG_16_16, CONFIG_32_32, AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.network import standalone_conv
from repro.nn.zoo import NETWORK_BUILDERS, build
from repro.perf import cache as cache_module
from repro.perf.cache import ScheduleCache, schedule_cache
from repro.schemes import make_scheme

ZOO = sorted(NETWORK_BUILDERS)


def _layer_fingerprint(result):
    """Everything a ScheduleResult reports, in comparable form."""
    return (
        result.scheme,
        result.layer_name,
        result.operations,
        result.useful_macs,
        result.extra_adds,
        {name: (c.loads, c.stores) for name, c in result.accesses.items()},
        result.dram_words,
        result.dma_cycles,
        result.reshape_cycles,
        result.input_layout,
        result.output_layout,
        result.total_cycles,
        result.buffer_accesses,
    )


def _run_fingerprint(run):
    return (
        run.input_reorder_words,
        run.total_cycles,
        run.buffer_accesses,
        run.dram_words,
        [_layer_fingerprint(r) for r in run.layers],
    )


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from an empty, enabled process-wide cache."""
    schedule_cache.configure(enabled=True)
    schedule_cache.clear()
    yield
    schedule_cache.configure(enabled=True)
    schedule_cache.clear()


@pytest.mark.parametrize("net_name", ZOO)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_cached_identical_to_uncached(net_name, policy):
    """Property: the cache never changes a single reported number."""
    net = build(net_name)
    schedule_cache.configure(enabled=False)
    reference = plan_network(net, CONFIG_16_16, policy)
    schedule_cache.configure(enabled=True)
    schedule_cache.clear()
    cold = plan_network(net, CONFIG_16_16, policy)
    warm = plan_network(net, CONFIG_16_16, policy)
    assert _run_fingerprint(cold) == _run_fingerprint(reference)
    assert _run_fingerprint(warm) == _run_fingerprint(reference)


def test_repeated_plans_hit_the_cache():
    net = build("vgg")
    plan_network(net, CONFIG_16_16, "oracle")
    first = schedule_cache.stats()
    plan_network(net, CONFIG_16_16, "oracle")
    second = schedule_cache.stats()
    assert first.hits > 0  # VGG repeats conv geometries within one plan
    assert second.misses == first.misses  # replan is all hits
    assert second.hits > first.hits


def test_distinct_configs_never_share_entries():
    """Any scheduling-relevant knob must split the key space."""
    ctx = build("alexnet").conv1()
    variants = {
        "tin": CONFIG_16_16.with_pe(8, 16),
        "tout": CONFIG_16_16.with_pe(16, 8),
        "input_buffer_bytes": dataclasses.replace(
            CONFIG_16_16, input_buffer_bytes=CONFIG_16_16.input_buffer_bytes // 2
        ),
        "output_buffer_bytes": dataclasses.replace(
            CONFIG_16_16, output_buffer_bytes=CONFIG_16_16.output_buffer_bytes // 2
        ),
        "weight_buffer_bytes": dataclasses.replace(
            CONFIG_16_16, weight_buffer_bytes=CONFIG_16_16.weight_buffer_bytes // 2
        ),
        "bias_buffer_bytes": dataclasses.replace(
            CONFIG_16_16, bias_buffer_bytes=CONFIG_16_16.bias_buffer_bytes // 2
        ),
        "dram_words_per_cycle": dataclasses.replace(
            CONFIG_16_16, dram_words_per_cycle=CONFIG_16_16.dram_words_per_cycle * 2
        ),
        "word_bytes": dataclasses.replace(CONFIG_16_16, word_bytes=4),
        "32-32": CONFIG_32_32,
    }
    base_key = CONFIG_16_16.schedule_key
    schedule_cache.get_or_schedule("inter", ctx, CONFIG_16_16)
    baseline = schedule_cache.stats()
    assert baseline.misses == 1
    for name, variant in variants.items():
        assert variant.schedule_key != base_key, name
    # requesting each variant is a fresh miss, never a cross-config hit
    misses = baseline.misses
    for variant in variants.values():
        schedule_cache.get_or_schedule("inter", ctx, variant)
        stats = schedule_cache.stats()
        misses += 1
        assert stats.misses == misses
        assert stats.hits == baseline.hits


def test_equal_geometry_under_two_names_shares_one_table():
    cache = ScheduleCache()
    first = standalone_conv(64, 128, kernel=3, stride=1, hw=28, pad=1, name="a")
    second = standalone_conv(64, 128, kernel=3, stride=1, hw=28, pad=1, name="b")
    assert first.geometry_key == second.geometry_key
    assert cache.table(second, CONFIG_16_16) is cache.table(first, CONFIG_16_16)
    stats = cache.stats()
    assert (stats.misses, stats.hits) == (1, 1)


#: standalone_conv's arguments, each changed to another legal value
BASE_GEOMETRY = dict(
    in_maps=64, out_maps=128, kernel=3, stride=1, hw=28, pad=1, groups=1
)
GEOMETRY_VARIANTS = {
    "in_maps": dict(in_maps=32),
    "out_maps": dict(out_maps=64),
    "kernel": dict(kernel=5),
    "stride": dict(stride=2),
    "hw": dict(hw=14),
    "pad": dict(pad=0),
    "groups": dict(groups=2),
}


def test_every_geometry_field_splits_the_key():
    cache = ScheduleCache()
    base = standalone_conv(**BASE_GEOMETRY)
    cache.table(base, CONFIG_16_16)
    variants = [
        standalone_conv(**{**BASE_GEOMETRY, **change})
        for change in GEOMETRY_VARIANTS.values()
    ]
    no_bias = dataclasses.replace(base.layer, bias=False)
    variants.append(dataclasses.replace(base, layer=no_bias))
    for n, ctx in enumerate(variants, start=2):
        assert ctx.geometry_key != base.geometry_key, ctx
        cache.table(ctx, CONFIG_16_16)
        assert cache.stats().misses == n and cache.stats().hits == 0, ctx


def _count_fits(monkeypatch):
    """Count the cache's buffer-fit derivations."""
    calls = []
    derive = cache_module.analyze_fit

    def counted(ctx, config):
        calls.append(ctx.geometry_key)
        return derive(ctx, config)

    monkeypatch.setattr(cache_module, "analyze_fit", counted)
    return calls


def test_one_fit_per_geometry_and_memory(monkeypatch):
    """A sweep of PE shapes over one memory system derives each distinct
    conv geometry's buffer fit once, and every table of it shares the fit."""
    calls = _count_fits(monkeypatch)
    net = build("vgg")
    shapes = [CONFIG_16_16.with_pe(tin, tout) for tin in (4, 16, 64) for tout in (8, 32)]
    for config in shapes:
        plan_network(net, config, "oracle")
    geometries = {ctx.geometry_key for ctx in net.conv_contexts()}
    assert len(calls) == len(geometries) < len(net.conv_contexts())
    conv1 = net.conv1()
    fits = {id(schedule_cache.table(conv1, config).fit) for config in shapes}
    assert len(fits) == 1
    # another memory system is a fit of its own
    slow = dataclasses.replace(CONFIG_16_16, dram_words_per_cycle=1.0)
    fast_fit = schedule_cache.table(conv1, CONFIG_16_16).fit
    assert schedule_cache.table(conv1, slow).fit != fast_fit
    assert len(calls) == len(geometries) + 1


def test_fits_are_derived_again_after_clear(monkeypatch):
    calls = _count_fits(monkeypatch)
    ctx = build("alexnet").conv1()
    before = schedule_cache.table(ctx, CONFIG_16_16).fit
    schedule_cache.table(ctx, CONFIG_16_16.with_pe(8, 8))
    assert len(calls) == 1
    schedule_cache.clear()
    after = schedule_cache.table(ctx, CONFIG_16_16).fit
    assert len(calls) == 2 and after is not before and after == before


def test_a_disabled_cache_derives_every_fit_afresh():
    cache = ScheduleCache(enabled=False)
    ctx = build("alexnet").conv1()
    configs = (CONFIG_16_16, CONFIG_16_16, CONFIG_32_32)
    fits = [cache.table(ctx, config).fit for config in configs]
    assert len({id(fit) for fit in fits}) == 3
    assert fits[0] == fits[1] == fits[2]


def test_hit_rebinds_layer_name_and_config():
    """Same geometry, different layer / clock: the cached result is rebound."""
    net = build("vgg")
    convs = {c.name: c for c in net.conv_contexts()}
    twin_a, twin_b = convs["conv3_2"], convs["conv3_3"]  # identical geometry
    fast = schedule_cache.get_or_schedule("inter-improved", twin_a, CONFIG_16_16)
    slow_cfg = CONFIG_16_16.with_frequency(100e6)  # not part of the key
    hit = schedule_cache.get_or_schedule("inter-improved", twin_b, slow_cfg)
    assert schedule_cache.stats().hits == 1
    assert hit.layer_name == twin_b.name
    assert hit.config is slow_cfg
    assert hit.total_cycles == fast.total_cycles
    assert hit.milliseconds() == pytest.approx(fast.milliseconds() * 10)


def test_returned_results_are_immutable():
    """No caller can corrupt the cache: every part of a result refuses writes."""
    ctx = build("alexnet").conv1()
    first = schedule_cache.get_or_schedule("intra", ctx, CONFIG_16_16)
    fingerprint = _layer_fingerprint(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.accesses["input"].loads += 12345
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.operations = 0
    with pytest.raises(TypeError):
        first.accesses["input"] = AccessCounter()
    with pytest.raises(TypeError):
        first.notes["tainted"] = True
    # the record is a view over its table's row: the row and its notes refuse writes too
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.costs = first.costs._replace(operations=0)
    with pytest.raises(AttributeError):
        first.costs.operations = 0
    with pytest.raises(TypeError):
        first.costs.notes["tainted"] = True
    assert first.notes is first.costs.notes
    second = schedule_cache.get_or_schedule("intra", ctx, CONFIG_16_16)
    assert second is first  # same layer name and config object: the stored value
    assert _layer_fingerprint(second) == fingerprint
    assert "tainted" not in second.notes


def test_clear_leaves_no_warm_state():
    """A pass after clear() misses exactly as often as the first pass."""
    nets = [build("alexnet"), build("nin")]
    configs = [AcceleratorConfig(tin=t, tout=u) for t in (16, 32) for u in (16, 32)]

    def plan_all():
        for net in nets:
            for config in configs:
                for policy in ("adaptive-2", "oracle"):
                    plan_network(net, config, policy)
        return schedule_cache.stats().misses

    first = plan_all()
    schedule_cache.clear()
    assert plan_all() == first


def test_illegal_schedules_are_negative_cached():
    # partition cannot map a degenerate s >= k layer
    net = build("googlenet")
    degenerate = next(
        c for c in net.conv_contexts() if c.layer.stride >= c.layer.kernel
    )
    for _ in range(2):
        with pytest.raises(ScheduleError):
            schedule_cache.get_or_schedule("partition", degenerate, CONFIG_16_16)
    stats = schedule_cache.stats()
    assert stats.misses == 1 and stats.hits == 1


def test_oracle_winner_follows_the_overlap_rule():
    """The winner ranks wall-clock cycles, which read ``overlap_streams``,
    though the flag is not part of the key: a serialized plan must not
    reuse the winners of an overlapped plan of the same layers."""
    net = build("alexnet")
    overlapped = AcceleratorConfig(tin=4, tout=64)
    serial = dataclasses.replace(overlapped, overlap_streams=False)
    plan_network(net, overlapped, "oracle")
    warm = plan_network(net, serial, "oracle")
    schedule_cache.clear()
    cold = plan_network(net, serial, "oracle")
    assert cold.layers[0].scheme == "partition"
    assert _run_fingerprint(warm) == _run_fingerprint(cold)


def test_cached_illegality_names_the_caller():
    """A negative entry replays the reason, not the first layer's name."""
    convs = {c.name: c for c in build("googlenet").conv_contexts()}
    first, second = convs["inception_3b/1x1"], convs["inception_3b/3x3_reduce"]
    with pytest.raises(ScheduleError, match="^inception_3b/1x1: partitioning"):
        schedule_cache.get_or_schedule("partition", first, CONFIG_16_16)
    with pytest.raises(ScheduleError) as cached:
        schedule_cache.get_or_schedule("partition", second, CONFIG_16_16)
    with pytest.raises(ScheduleError) as uncached:
        make_scheme("partition").schedule(second, CONFIG_16_16)
    assert schedule_cache.stats().hits == 1
    assert str(cached.value) == str(uncached.value)
    assert str(cached.value).startswith("inception_3b/3x3_reduce: partitioning")


def test_lru_eviction_bound():
    cache = ScheduleCache(maxsize=2)
    net = build("alexnet")
    convs = net.conv_contexts()
    cache.get_or_schedule("intra", convs[0], CONFIG_16_16)
    cache.get_or_schedule("intra", convs[1], CONFIG_16_16)
    cache.get_or_schedule("intra", convs[2], CONFIG_16_16)
    stats = cache.stats()
    assert stats.size == 2
    assert stats.evictions == 1
    # the oldest entry was evicted: re-requesting it is a miss again
    cache.get_or_schedule("intra", convs[0], CONFIG_16_16)
    assert cache.stats().misses == 4


def test_disabled_cache_stores_nothing():
    cache = ScheduleCache(enabled=False)
    ctx = build("alexnet").conv1()
    r1 = cache.get_or_schedule("intra", ctx, CONFIG_16_16)
    r2 = cache.get_or_schedule("intra", ctx, CONFIG_16_16)
    stats = cache.stats()
    assert len(cache) == 0 and stats.lookups == 0
    assert _layer_fingerprint(r1) == _layer_fingerprint(r2)


def test_analysis_drivers_price_through_the_cache():
    """The analysis drivers read their records from the cache's tables, so
    ``--no-plan-cache`` governs them too, and turning it off moves no row."""
    from repro.analysis.experiments import fig7_conv1
    from repro.analysis.reuse import reuse_table

    ctx = build("alexnet").conv1()
    fig7 = fig7_conv1()
    assert schedule_cache.stats().lookups > 0
    schedule_cache.clear()
    reuse = reuse_table(ctx, CONFIG_16_16)
    assert schedule_cache.stats().lookups > 0
    schedule_cache.configure(enabled=False)
    assert fig7_conv1() == fig7
    assert reuse_table(ctx, CONFIG_16_16) == reuse
