"""Resilience benchmark: chaos scenarios, availability and recovery.

Runs every named chaos scenario (:mod:`repro.resilience.scenarios`) at a
fixed seed and reduces each to its headline resilience numbers:
availability, goodput under fault relative to healthy, p95/p99 latency
ratios, MTTR, and the retry/failure accounting.

Writes ``BENCH_resilience.json``.  The headline asserts the structural
claims and the script exits nonzero if any fails:

1. **zero silent drops** — every offered request terminates as completed,
   shed, or failed-with-reason, in every scenario;
2. **single-crash recovery** — under a single replica fail-stop at steady
   state, windowed goodput recovers to at least the survivor fraction
   ``(N-1)/N`` of healthy goodput, within a measured (finite) MTTR;
3. **determinism** — running the single-crash scenario twice produces
   byte-identical rollup JSON.

``--smoke`` runs a three-scenario subset.  All numbers are modelled
accelerator time: reruns are byte-deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py [--smoke] [--output BENCH_resilience.json]
"""

from __future__ import annotations

import sys

from harness import main, stable

from repro.arch.config import CONFIG_16_16
from repro.resilience import SCENARIO_NAMES, build_scenario, run_scenario
from repro.resilience.scenarios import VIEW

SEED = 1
SMOKE_SCENARIOS = ("single-crash", "fail-slow", "pe-mask")


def _run_one(name: str) -> dict:
    return run_scenario(build_scenario(name, seed=SEED))


def digest(rollup: dict) -> dict:
    faulted = rollup["faulted"]
    recovery = rollup["recovery"]
    terminated = faulted["completed"] + faulted["shed"] + faulted["failed"]
    return {
        "scenario": rollup["scenario"]["name"],
        "offered": faulted["offered"],
        "completed": faulted["completed"],
        "shed": faulted["shed"],
        "failed": faulted["failed"],
        "no_silent_drops": terminated == faulted["offered"],
        "availability": rollup["availability"],
        "goodput_under_fault_rps": rollup["goodput_under_fault"],
        "goodput_ratio": rollup["goodput_ratio"],
        "latency_ratio_p95": rollup["latency_ratio"]["p95"],
        "latency_ratio_p99": rollup["latency_ratio"]["p99"],
        "mttr_ms": recovery["mttr_ms"],
        "recovered": recovery["recovered"],
        "survivor_fraction": recovery["survivor_fraction"],
        "retries": rollup["failover"]["retries"],
        "hedges": rollup["failover"]["hedges"],
    }


def run(args):
    names = SMOKE_SCENARIOS if args.smoke else SCENARIO_NAMES
    crash, deterministic = stable(lambda: _run_one("single-crash"))
    rollups = {
        name: crash if name == "single-crash" else _run_one(name)
        for name in names
    }
    rows = [digest(rollup) for rollup in rollups.values()]

    crash_row = digest(crash)
    goodput_floor = crash_row["survivor_fraction"]
    recovers = (
        crash_row["recovered"]
        and crash_row["mttr_ms"] is not None
        and crash_row["goodput_ratio"] >= goodput_floor
    )
    no_drops = all(r["no_silent_drops"] for r in rows)
    headline = {
        "no_silent_drops_everywhere": no_drops,
        "single_crash_recovers_to_survivor_fraction": recovers,
        "single_crash_mttr_ms": crash_row["mttr_ms"],
        "single_crash_availability": crash_row["availability"],
        "byte_deterministic": deterministic,
    }
    payload = {
        "config": CONFIG_16_16.name,
        "seed": SEED,
        "smoke": args.smoke,
        "scenarios": rows,
        "headline": headline,
    }

    lines = [VIEW.render(SEED, CONFIG_16_16.name, rollups)]
    gates = [
        (no_drops, "a request was silently dropped"),
        (
            recovers,
            "single-crash goodput did not recover to the survivor "
            "fraction of healthy within a finite MTTR",
        ),
        (deterministic, "single-crash rollup is not byte-deterministic"),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("resilience", run, __doc__))
