"""One benchmark process: set up, warm up, time repetitions, print JSON.

``run.py`` starts these one at a time with a clean environment.  A child

1. imports the simulator, generates its inputs and primes its caches
   (``setup_s`` runs from the parent's spawn timestamp to the end of this
   step, less the calibration run just before it);
2. with ``--setup-only``, stops there;
3. runs one discarded warm-up repetition;
4. runs timed repetitions of identical work until ``--budget`` seconds are
   spent (at least one; another only if it is expected to end less than
   half a repetition past the budget);
5. reads its peak RSS;
6. with ``--trace``, runs one more repetition with the layer wrappers of
   :mod:`spans` installed;
7. with ``--extras``, computes the modelled metrics and checks that cost
   extra work.

The host's speed drifts by up to 2x over seconds, so set-up and every
segment of a repetition (a workload marks segment boundaries with its
``split`` callback) are bracketed by :func:`calibrate`, a fixed pure-Python
kernel whose time tracks the host's current speed; ``run.py`` divides by it.

The last line of stdout is one JSON object; ``run.py`` aggregates them.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import random
import resource
import sys
import time
from dataclasses import asdict
from typing import Dict, List

from spans import Tracer


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _kernel() -> float:
    # the simulator's mix in miniature: small objects, a heap, dict-of-list
    # grouping, keyed sorts
    rng = random.Random(7)
    heap: list = []
    groups: Dict[int, list] = {}
    total = 0.0
    for i in range(6000):
        item = _Item(i % 61, rng.random())
        heapq.heappush(heap, (item.value, i, item))
        groups.setdefault(item.key, []).append(item)
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].value
    for group in groups.values():
        group.sort(key=lambda it: it.value)
        total += group[0].value
    return total


def calibrate(trials: int = 5) -> float:
    """Seconds the calibration kernel takes right now (best of ``trials``)."""
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class RepTimer:
    """Times one repetition in segments, calibrating between segments.

    ``cal_s`` is the calibration time weighted over the segments, so that
    ``wall_s / cal_s`` is the repetition's time in kernel units.
    """

    def __init__(self, before_s: float) -> None:
        self.before_s = before_s
        self.wall_s = 0.0
        self._units = 0.0
        gc.collect()
        self._start = time.perf_counter()

    def split(self) -> None:
        segment = time.perf_counter() - self._start
        after_s = calibrate()
        self.wall_s += segment
        self._units += segment / ((self.before_s + after_s) / 2)
        self.before_s = after_s
        self._start = time.perf_counter()

    @property
    def cal_s(self) -> float:
        return self.wall_s / self._units


def _rep_record(rep) -> Dict[str, object]:
    record = asdict(rep)
    record["checks"] = [[name, ok] for name, ok in rep.checks]
    return record


def _timed(workload, before_s: float):
    """One repetition: its record (with wall and calibration), the Rep and
    the closing calibration."""
    timer = RepTimer(before_s)
    rep = workload.rep(timer.split)
    timer.split()
    record = _rep_record(rep)
    record["wall_s"] = timer.wall_s
    record["cal_s"] = timer.cal_s
    return record, rep, timer.before_s


def traced_rep(workload) -> Dict[str, object]:
    """One repetition under the layer wrappers, reduced to per-layer metrics."""
    memo_before = {id(c): (c.memo_hits, c.memo_misses) for c in workload.costers}
    tracer = Tracer()
    before_s = calibrate()
    with tracer.installed():
        record, rep, _ = _timed(workload, before_s)
    totals = tracer.layer_totals()
    layer: Dict[str, float] = {}
    for name, entry in totals.items():
        layer[f"{name}.calls"] = entry["calls"]
        layer[f"{name}.self_s"] = entry["self_s"]
    layer["serve.workload.s"] = totals["serve.workload"]["total_s"]

    hits = misses = 0
    for coster in tracer.receivers.get("serve.batcher", {}).values():
        hits0, misses0 = memo_before.get(id(coster), (0, 0))
        hits += coster.memo_hits - hits0
        misses += coster.memo_misses - misses0
    layer["serve.batcher.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    sizes = [
        size
        for engine in tracer.receivers.get("serve.engine", {}).values()
        for size in engine.metrics.batch_sizes
    ]
    if sizes:
        layer["serve.batcher.mean_batch"] = sum(sizes) / len(sizes)
    # counters read off the workload's own output win over wrapper-derived ones
    layer.update(rep.layer)
    for key in ("hits", "misses", "evictions"):
        layer[f"perf.cache.{key}"] = rep.counters[f"cache.{key}"]
    lookups = rep.counters["cache.hits"] + rep.counters["cache.misses"]
    layer["perf.cache.hit_ratio"] = rep.counters["cache.hits"] / lookups if lookups else 0.0
    return {
        "rep": record,
        "layer": layer,
        "layers": totals,
        "spans": tracer.span_table(),
    }


def run_child(
    name: str,
    seed: int,
    budget_s: float,
    started: float,
    setup_only: bool = False,
    extras: bool = False,
    trace: bool = False,
    tiny: bool = False,
) -> Dict[str, object]:
    """Everything one child measures; ``started`` is a ``time.monotonic()``."""
    mark = time.monotonic()
    before_s = calibrate()
    calibrating_s = time.monotonic() - mark
    # imported here, after the first calibration, because importing the
    # simulator is part of set-up
    import workloads

    workload = workloads.make(name, seed, tiny=tiny)
    workload.setup()
    setup_s = time.monotonic() - started - calibrating_s
    after_s = calibrate()
    out: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "setup_cal_s": (before_s + after_s) / 2,
    }
    if setup_only:
        return out
    out["warmup"] = _rep_record(workload.rep())
    reps: List[Dict[str, object]] = []
    spent = 0.0
    before_s = calibrate()
    while True:
        record, _, before_s = _timed(workload, before_s)
        reps.append(record)
        spent += record["wall_s"]
        if spent + record["wall_s"] / 2 > budget_s:
            break
    out["reps"] = reps
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        out["trace"] = traced_rep(workload)
    if extras:
        out["modelled"] = workload.modelled()
        out["post_checks"] = [[n, ok] for n, ok in workload.post_checks()]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--extras", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_child(
        args.workload,
        args.seed,
        args.budget,
        args.started,
        setup_only=args.setup_only,
        extras=args.extras,
        trace=args.trace,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
