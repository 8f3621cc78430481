"""Parallel executor: ordering, fallback, and serial/parallel bit-identity."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adaptive.search import best_scheme_name_for_layer
from repro.arch.config import CONFIG_16_16
from repro.nn.zoo import build
from repro.perf.cache import schedule_cache
from repro.perf.parallel import parallel_map, resolve_jobs


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


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
