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

``--smoke`` runs a three-scenario subset.  All numbers are modelled
accelerator time: reruns are byte-deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos_control.py [--smoke] [--jobs N] [--output BENCH_chaos_control.json]
"""

from __future__ import annotations

import sys

from harness import main, stable

from repro.arch.config import CONFIG_16_16
from repro.control.chaos_scenarios import (
    CONTROL_SCENARIO_NAMES,
    CONTROL_VIEW,
    build_control_scenario,
    run_control_scenario,
)
from repro.perf import parallel_map

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


def run(args):
    names = SMOKE_SCENARIOS if args.smoke else CONTROL_SCENARIO_NAMES
    storm, deterministic = stable(lambda: _run_one(HEADLINE_SCENARIO))
    others = [name for name in names if name != HEADLINE_SCENARIO]
    rollups = dict(zip(others, parallel_map(_run_one, others, jobs=args.jobs)))
    rollups[HEADLINE_SCENARIO] = storm
    rows = [digest(rollups[name]) for name in names]

    storm_row = digest(storm)
    healing_wins = (
        storm_row["attainment_healing"] > storm_row["attainment_frozen_faulted"]
        and storm_row["attainment_healing"] > storm_row["attainment_nonhealing"]
    )
    invariants_hold = all(r["invariants_pass"] for r in rows)
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
        "config": CONFIG_16_16.name,
        "seed": SEED,
        "smoke": args.smoke,
        "scenarios": rows,
        "headline": headline,
    }

    lines = [CONTROL_VIEW.render(SEED, CONFIG_16_16.name, rollups, names)]
    bad = [
        f"{r['scenario']}:{inv}"
        for r in rows
        for inv, held in r["invariants"].items()
        if not held
    ]
    gates = [
        (invariants_hold, f"invariants violated: {', '.join(bad)}"),
        (
            healing_wins,
            "self-healing attainment is not strictly above both the "
            "frozen fleet and the non-healing loop on composite-storm",
        ),
        (deterministic, "composite-storm rollup is not byte-deterministic"),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("chaos_control", run, __doc__, jobs=1))
