"""Tests of the benchmark itself: run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``."""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
import types

import pytest

import child
import workloads
import run
import spans

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = run.declared()
DECLARED = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _originals():
    return [
        getattr(spans._resolve(t.owner), t.attr) for t in spans.TARGETS
    ]


@pytest.fixture(scope="module")
def tiny_records():
    """Every workload at a tiny size, traced, through the benchmark's own path."""
    before = _originals()
    records = {}
    for name in WORKLOAD_NAMES:
        result = child.run_child(
            name, 0, 0.0, time.monotonic(), extras=True, trace=True, tiny=True
        )
        records[name] = run.aggregate([json.loads(json.dumps(result))], SPEC)
    return before, records


def test_workload_registry_matches_declaration():
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


def test_every_tiny_workload_passes_its_checks(tiny_records):
    _, records = tiny_records
    for name, record in records.items():
        assert record["checks"]["attempted"] > 0, name
        assert record["checks"]["failures"] == [], name
        for metric in ("wall_s", "setup_s", "peak_rss_mb"):
            assert record["metrics"][metric]["value"] > 0, (name, metric)


def test_emitted_names_are_declared(tiny_records):
    _, records = tiny_records
    allowed = DECLARED | set(run.EXTRA_METRICS)
    for trace in (False, True):
        line = run.result_line(records, SPEC, trace, flat=False)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for metrics in line["metrics"].values():
            kind = "per_layer" if trace else "end_to_end"
            assert list(metrics) == [m["name"] for m in SPEC[kind]]
    for record in records.values():
        for name in list(record["metrics"]) + list(record["per_layer"]):
            assert NAME.match(name) and name in allowed, name


def test_wrappers_removed_after_traced_repetition(tiny_records):
    before, _ = tiny_records
    assert _originals() == before


def test_traced_layers_cover_the_traced_repetition(tiny_records):
    _, records = tiny_records
    for name, record in records.items():
        assert record["per_layer"]["trace.coverage_frac"]["value"] >= 0.8, name


def test_self_time_subtracts_wrapped_children(monkeypatch):
    fake = types.ModuleType("fake_layers")
    now = [0.0]

    def clock():
        return now[0]

    def inner(cost):
        now[0] += cost

    def outer():
        now[0] += 1.0
        fake.inner(2.0)
        fake.inner(3.0)
        fake.outer_again()  # same layer: part of the open span
        return "done"

    def outer_again():
        now[0] += 0.5

    fake.inner, fake.outer, fake.outer_again = inner, outer, outer_again
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    tracer = spans.Tracer(
        [
            spans.Target("a", "fake_layers", "outer"),
            spans.Target("a", "fake_layers", "outer_again"),
            spans.Target("b", "fake_layers", "inner"),
        ],
        clock=clock,
    )
    with tracer.installed():
        assert fake.outer() == "done"
    assert fake.outer is outer and fake.inner is inner
    totals = tracer.layer_totals()
    assert totals["a"] == {"calls": 1, "total_s": 6.5, "self_s": 1.5}
    assert totals["b"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert tracer.spans[("b", "a")] == [2, 5.0, 5.0]
    assert tracer.spans[("a", None)] == [1, 6.5, 1.5]


def test_summarize_matches_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.summarize(values) == {
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
    }
    assert run.summarize([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}


def test_benchmark_json_follows_its_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "plan-sweep"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
