"""Parallel executor: ordering, fallback, and serial/parallel bit-identity."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adaptive.search import (
    CANDIDATE_SCHEMES,
    best_scheme_for_layer,
    best_scheme_name_for_layer,
    search_network,
)
from repro.analysis.experiments import fig8_whole_network, table4_cpu_comparison
from repro.analysis.sweeps import sweep_parameter, sweep_pe_shapes
from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.nn.zoo import build
from repro.perf.cache import schedule_cache
from repro.perf.parallel import (
    get_default_jobs,
    parallel_map,
    resolve_jobs,
    set_default_jobs,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


@pytest.fixture(autouse=True)
def _restore_default_jobs():
    before = get_default_jobs()
    yield
    set_default_jobs(before)


def test_import_leaves_the_process_pool_unloaded():
    """Only a ``parallel_map`` that builds a pool imports it: a serving,
    planning or chaos process never loads ``concurrent.futures`` or
    ``multiprocessing``."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys\n"
        "import repro.serve, repro.adaptive.planner, repro.control.chaos_scenarios\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_resolve_jobs_semantics():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-1) >= 1  # all CPUs
    set_default_jobs(2)
    assert resolve_jobs(None) == 2
    with pytest.raises(ConfigError):
        set_default_jobs(0)


def test_parallel_map_preserves_order():
    items = list(range(20))
    expected = [_square(x) for x in items]
    assert parallel_map(_square, items, jobs=1) == expected
    assert parallel_map(_square, items, jobs=2) == expected


def test_worker_exceptions_propagate():
    with pytest.raises(ValueError):
        parallel_map(_boom, [1, 2, 3], jobs=2)


def test_progress_callback_serial_counts_up_in_order():
    items = list(range(7))
    seen = []
    result = parallel_map(
        _square, items, jobs=1, progress=lambda done, total: seen.append((done, total))
    )
    assert result == [_square(x) for x in items]
    assert seen == [(k, 7) for k in range(1, 8)]


def test_progress_callback_parallel_counts_up_in_order():
    items = list(range(16))
    seen = []
    result = parallel_map(
        _square, items, jobs=2, progress=lambda done, total: seen.append((done, total))
    )
    assert result == [_square(x) for x in items]
    assert seen == [(k, 16) for k in range(1, 17)]


def test_progress_callback_leaves_results_bit_identical():
    items = list(range(25))
    plain = parallel_map(_square, items, jobs=2)
    with_cb = parallel_map(_square, items, jobs=2, progress=lambda d, t: None)
    assert plain == with_cb == [_square(x) for x in items]


def test_progress_callback_exceptions_propagate():
    with pytest.raises(RuntimeError, match="observer"):
        parallel_map(
            _square,
            [1, 2, 3],
            jobs=1,
            progress=lambda d, t: (_ for _ in ()).throw(RuntimeError("observer")),
        )


def test_progress_callback_not_called_for_empty_input():
    seen = []
    assert parallel_map(_square, [], jobs=2, progress=lambda d, t: seen.append(d)) == []
    assert seen == []


def test_search_network_parallel_matches_serial():
    net = build("vgg")
    serial = search_network(net, CONFIG_16_16, jobs=1)
    fanned = search_network(net, CONFIG_16_16, jobs=2)
    assert [(o.layer_name, o.scheme, o.cycles) for o in serial] == [
        (o.layer_name, o.scheme, o.cycles) for o in fanned
    ]


def _fresh_then_carried(payload):
    """Plan a network built here, then the contexts the parent sent."""
    name, carried, config = payload
    picks = []
    for ctx in build(name).conv_contexts() + carried:
        table = schedule_cache.table(ctx, config)
        winner = best_scheme_name_for_layer(ctx, config)
        picks.append((ctx.name, winner, table.result(winner, ctx, config).total_cycles))
    return picks


def test_pooled_planning_of_contexts_keyed_in_the_parent_matches_serial():
    """Contexts and configs keyed in the parent carry their keys into a
    worker that has keyed other contexts first: a key is the content, so
    the worker's lookups find its own tables, as a serial pass does."""
    carried = build("googlenet").conv_contexts()[::3]
    configs = [CONFIG_16_16, CONFIG_16_16.with_pe(8, 32)]
    for config in configs:  # key every carried context and config here
        for ctx in carried:
            schedule_cache.table(ctx, config)
    payloads = [
        (name, carried, config) for name in ("alexnet", "vgg") for config in configs
    ]
    serial = parallel_map(_fresh_then_carried, payloads, jobs=1)
    assert parallel_map(_fresh_then_carried, payloads, jobs=2) == serial
    schedule_cache.clear()
    assert [_fresh_then_carried(payload) for payload in payloads] == serial


def test_tie_break_is_candidate_order_independent():
    net = build("googlenet")
    for ctx in net.conv_contexts()[:8]:
        forward = best_scheme_for_layer(ctx, CONFIG_16_16, CANDIDATE_SCHEMES)
        backward = best_scheme_for_layer(
            ctx, CONFIG_16_16, tuple(reversed(CANDIDATE_SCHEMES))
        )
        assert forward.scheme == backward.scheme
        assert forward.cycles == backward.cycles


def test_sweep_parameter_parallel_matches_serial():
    net = build("alexnet")
    values = [1.0, 2.0, 4.0, 8.0]
    serial = sweep_parameter(net, CONFIG_16_16, "dram_words_per_cycle", values)
    fanned = sweep_parameter(
        net, CONFIG_16_16, "dram_words_per_cycle", values, jobs=2
    )
    assert serial == fanned
    assert [p.value for p in fanned] == values


def test_sweep_pe_shapes_parallel_matches_serial():
    net = build("alexnet")
    assert sweep_pe_shapes(net, CONFIG_16_16, 256) == sweep_pe_shapes(
        net, CONFIG_16_16, 256, jobs=2
    )


def test_experiment_drivers_parallel_match_serial():
    assert fig8_whole_network(jobs=2) == fig8_whole_network(jobs=1)
    assert table4_cpu_comparison(jobs=2) == table4_cpu_comparison(jobs=1)
