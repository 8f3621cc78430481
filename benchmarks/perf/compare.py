"""Compare two benchmark result files, metric by metric, against the bounds.

Usage::

    python3 benchmarks/perf/compare.py BASE.json HEAD.json

Both files are ``run.py --output`` records.  For every (workload, metric)
present in both it prints the base and head values, the relative change,
and a verdict:

* host metrics (bounds from ``BENCHMARK.json`` or ``run.EXTRA_METRICS``):
  ``worse`` when the head is worse by more than the bound, ``better`` /
  ``ok`` otherwise, and ``unresolved`` when the base's own repetition spread
  (``wall_s`` quartiles) is wider than the bound;
* exact modelled metrics: ``changed`` on any difference, else ``same``.

One pair of files is one sample; see README.md for the ten-pair protocol a
claimed gain needs.  Exits 1 when any metric is ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Tuple

from run import EXTRA_METRICS, declared


def metric_rules() -> Dict[str, Tuple[str, object]]:
    """``{metric: (better, bound)}``; a bound of None means exact."""
    rules = {name: (better, bound) for name, (_, better, bound) in EXTRA_METRICS.items()}
    for metric in declared()["end_to_end"]:
        rules[metric["name"]] = (metric["better"], metric["bound"])
    return rules


def verdict(base: float, head: float, better: str, bound, spread: float) -> str:
    if bound is None:
        return "same" if head == base else "changed"
    if base == 0:
        return "ok" if head == 0 else ("worse" if better == "lower" else "better")
    if spread > bound > 0:
        return "unresolved"
    # positive: the head is worse, as a share of the base
    loss = head / base - 1.0 if better == "lower" else 1.0 - head / base
    if loss > bound:
        return "worse"
    return "better" if loss < -bound else "ok"


def compare(base: dict, head: dict) -> Tuple[list, bool]:
    rules = metric_rules()
    rows = []
    bad = False
    for workload in sorted(set(base["workloads"]) & set(head["workloads"])):
        b_rec, h_rec = base["workloads"][workload], head["workloads"][workload]
        wall = b_rec["wall_s"]
        spread = (wall["q3"] - wall["q1"]) / wall["median"]
        for metric in sorted(set(b_rec["metrics"]) & set(h_rec["metrics"])):
            if metric not in rules:
                continue
            better, bound = rules[metric]
            b_val = b_rec["metrics"][metric]["value"]
            h_val = h_rec["metrics"][metric]["value"]
            # only wall time has a per-run spread; the others are medians of
            # per-child samples or exact
            v = verdict(b_val, h_val, better, bound, spread if metric == "wall_s" else 0.0)
            bad |= v in ("worse", "changed")
            change = f"{h_val / b_val - 1:+.2%}" if b_val else "n/a"
            limit = "exact" if bound is None else f"{bound:.0%}"
            rows.append((workload, metric, f"{b_val:.6g}", f"{h_val:.6g}", change, limit, v))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        head = json.load(handle)
    rows, bad = compare(base, head)
    header = ("workload", "metric", "base", "head", "change", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
