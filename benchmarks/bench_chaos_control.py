"""Self-healing control plane benchmark: chaos under closed-loop autoscaling.

Runs every chaos-under-autoscaling scenario
(:mod:`repro.control.chaos_scenarios`) at a fixed seed.  Each scenario
executes four arms on the identical seeded request list — frozen-healthy,
frozen-faulted, the non-healing PR-7 loop under the same control-plane
faults, and the full self-healing loop — so every attainment delta is
attributable to healing.

Writes ``BENCH_chaos_control.json``.  The headline asserts the
acceptance-criteria claims and the script exits nonzero if any fails:

1. **every declared invariant holds** in every scenario (zero silent
   drops, bounded MTTR, attainment >= survivor-capacity floor, safe mode
   never sheds more than the frozen baseline, ...);
2. **self-healing wins** — on the composite-storm schedule (fail-stop +
   PE mask + flash crowd + tampered telemetry + lost actuation +
   controller crash) the self-healing loop's SLO attainment is strictly
   above BOTH the frozen fleet and the non-healing loop under the
   identical fault schedule;
3. **determinism** — the composite-storm rollup is byte-identical across
   reruns, and the full scenario sweep is byte-identical across ``--jobs``
   settings (scenarios are independent; ``parallel_map`` preserves input
   order).

All numbers are modelled accelerator time: reruns are byte-deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos_control.py [--smoke] [--jobs N] [--output BENCH_chaos_control.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from repro.arch.config import CONFIG_16_16
from repro.control.chaos_scenarios import (
    CONTROL_SCENARIO_NAMES,
    build_control_scenario,
    run_control_scenario,
)
from repro.perf import parallel_map
from repro.serve.metrics import to_json

SEED = 1
SMOKE_SCENARIOS = ("crash-replace", "loop-restart", "composite-storm")
HEADLINE_SCENARIO = "composite-storm"


def _run_one(name: str) -> dict:
    return run_control_scenario(build_control_scenario(name, seed=SEED))


def digest(rollup: dict) -> dict:
    att = rollup["attainment"]
    recovery = rollup["recovery"]
    detail = rollup["healing_detail"]
    return {
        "scenario": rollup["scenario"]["name"],
        "attainment_healing": att["healing"],
        "attainment_nonhealing": att["nonhealing"],
        "attainment_frozen_faulted": att["frozen_faulted"],
        "attainment_frozen_healthy": att["frozen_healthy"],
        "delta_vs_frozen": att["delta_vs_frozen"],
        "delta_vs_nonhealing": att["delta_vs_nonhealing"],
        "mttr_ms": recovery["mttr_ms"],
        "recovered": recovery["recovered"],
        "telemetry_flags": detail["telemetry_flags"],
        "restarts": len(detail["restarts"]),
        "safe_mode_intervals": len(detail["safe_mode_intervals"]),
        "invariants": rollup["invariants"],
        "invariants_pass": all(rollup["invariants"].values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_chaos_control.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="three-scenario subset (the CI smoke configuration)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="scenario-level process parallelism (output is identical "
        "for every value)",
    )
    args = parser.parse_args(argv)

    names = SMOKE_SCENARIOS if args.smoke else CONTROL_SCENARIO_NAMES
    rollups = dict(
        zip(names, parallel_map(_run_one, names, jobs=args.jobs))
    )
    rows = [digest(rollups[name]) for name in names]

    storm = rollups[HEADLINE_SCENARIO]
    storm_row = digest(storm)
    healing_wins = (
        storm_row["attainment_healing"] > storm_row["attainment_frozen_faulted"]
        and storm_row["attainment_healing"] > storm_row["attainment_nonhealing"]
    )
    invariants_hold = all(r["invariants_pass"] for r in rows)
    deterministic = to_json(storm) == to_json(
        _run_one(HEADLINE_SCENARIO)
    )

    headline = {
        "all_invariants_hold": invariants_hold,
        "healing_beats_frozen_and_nonhealing": healing_wins,
        "storm_attainment_healing": storm_row["attainment_healing"],
        "storm_attainment_nonhealing": storm_row["attainment_nonhealing"],
        "storm_attainment_frozen": storm_row["attainment_frozen_faulted"],
        "storm_mttr_ms": storm_row["mttr_ms"],
        "byte_deterministic": deterministic,
    }

    payload = {
        "benchmark": "chaos_control",
        "generated_by": "benchmarks/bench_chaos_control.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "config": CONFIG_16_16.name,
        "seed": SEED,
        "smoke": args.smoke,
        "scenarios": rows,
        "headline": headline,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    print(
        f"{'scenario':<24s} {'healing':>8s} {'nonheal':>8s} {'frozen':>8s} "
        f"{'mttr ms':>8s} {'invariants':>10s}"
    )
    for r in rows:
        mttr = f"{r['mttr_ms']:.0f}" if r["mttr_ms"] is not None else "-"
        n_inv = len(r["invariants"])
        n_ok = sum(r["invariants"].values())
        print(
            f"{r['scenario']:<24s} {r['attainment_healing']:>8.4f} "
            f"{r['attainment_nonhealing']:>8.4f} "
            f"{r['attainment_frozen_faulted']:>8.4f} {mttr:>8s} "
            f"{n_ok:>7d}/{n_inv}"
        )
    ok = True
    if not invariants_hold:
        bad = [
            f"{r['scenario']}:{inv}"
            for r in rows
            for inv, held in r["invariants"].items()
            if not held
        ]
        print(f"FAIL: invariants violated: {', '.join(bad)}", file=sys.stderr)
        ok = False
    if not healing_wins:
        print(
            "FAIL: self-healing attainment is not strictly above both the "
            "frozen fleet and the non-healing loop on composite-storm",
            file=sys.stderr,
        )
        ok = False
    if not deterministic:
        print(
            "FAIL: composite-storm rollup is not byte-deterministic",
            file=sys.stderr,
        )
        ok = False
    print(f"written to {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
