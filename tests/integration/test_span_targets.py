"""Every callable the repository benchmark traces must still exist.

``benchmarks/perf/spans.py`` times each stack layer by wrapping the
functions and methods its ``TARGETS`` list names.  A refactor that renames
or deletes one of them breaks the benchmark's tracer, and tier-1 collects
only ``tests/``; this guard loads the tracer by path and resolves every
target exactly as the tracer does.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perf_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while being defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for target in spans.TARGETS:
        try:
            fn = getattr(spans._resolve(target.owner), target.attr)
        except (ImportError, AttributeError):
            missing.append(f"{target.owner}.{target.attr}")
            continue
        assert callable(fn), f"{target.owner}.{target.attr}"
    assert not missing, f"benchmark span targets no longer resolve: {missing}"
