"""Capacity-planner benchmark: the what-if search vs naive provisioning.

One headline experiment on a seeded mixed-tenant forecast (deterministic
across reruns):

**Planner vs best naive homogeneous fleet** — the full candidate grid
(both geometries, 1-4 chips, replication/pipeline/data-parallel/
partitioning, adaptive batching up to 16) is searched by
:func:`repro.capacity.plan_capacity` under a one-crash fault model, and
races a *naive* grid restricted to what a spreadsheet buyer would try:
homogeneous replicated fleets at batch 1 — no batching, no sharding, no
partitioning.  Both searches see the same forecast, SLO target, and
fault model, and rank by cost per million good requests.  Gates:

1. the planner's winner is feasible (healthy worst-tenant attainment
   meets the SLO target);
2. the planner beats the naive winner on cost at equal-or-better
   attainment — batching lets a smaller fleet meet the same SLO, so the
   win is structural, not a tie-break;
3. the ranked JSON is byte-identical across a cold and a warm rerun
   (the second run starts from the in-memory plan cache the first one
   filled).

Writes ``BENCH_capacity.json``.  Exits nonzero if any gate fails.
``--smoke`` forecasts a 2.5 s window instead of 6 s.

Usage::

    PYTHONPATH=src python benchmarks/bench_capacity.py [--smoke] [--output BENCH_capacity.json]
"""

from __future__ import annotations

import sys

from harness import main

from repro.capacity import (
    CandidateGrid,
    FaultModel,
    ForecastSpec,
    plan_capacity,
    report_to_json,
)

TENANTS = "acme=alexnet:9/nin:1,beta=alexnet:4/nin:1@2"
RATE = 260.0
SLO_MS = 250.0
SLO_TARGET = 0.95
SEED = 11
FULL_DURATION_S = 6.0
SMOKE_DURATION_S = 2.5

FAULTS = FaultModel(seed=4, crashes=1)

PLANNER_GRID = CandidateGrid(
    geometries=("16-16", "32-32"),
    chip_counts=(1, 2, 4),
    strategies=("replicated", "pipeline", "data-parallel", "partitioned"),
    groups=(2,),
    splits=(2,),
    max_batches=(1, 16),
)

# what a spreadsheet buyer would try: homogeneous replicated fleets,
# one request per batch, no sharding, no partitioning
NAIVE_GRID = CandidateGrid(
    geometries=("16-16", "32-32"),
    chip_counts=(1, 2, 4),
    max_batches=(1,),
)


def run_search(grid: CandidateGrid, forecast: ForecastSpec):
    return plan_capacity(grid, forecast, slo_target=SLO_TARGET, fault_model=FAULTS)


def run(args):
    duration = SMOKE_DURATION_S if args.smoke else FULL_DURATION_S
    forecast = ForecastSpec.parse(
        TENANTS, rate=RATE, duration_s=duration, slo_ms=SLO_MS, seed=SEED
    )

    planned = run_search(PLANNER_GRID, forecast)
    warm = run_search(PLANNER_GRID, forecast)
    naive = run_search(NAIVE_GRID, forecast)
    warm_hits = warm["cache"]["planner_hits"] + warm["cache"]["workers"]["hits"]

    stable = report_to_json(planned) == report_to_json(warm)
    winner = planned["deployments"][planned["winner"]]
    baseline = naive["deployments"][naive["winner"]]

    winner_cost = winner.get("cost_per_mreq")
    baseline_cost = baseline.get("cost_per_mreq")
    winner_attain = winner["healthy"]["attainment"] if "healthy" in winner else 0.0
    baseline_attain = (
        baseline["healthy"]["attainment"] if "healthy" in baseline else 0.0
    )
    planner_feasible = bool(winner.get("feasible"))
    beats_naive = (
        planner_feasible
        and winner_cost is not None
        and baseline_cost is not None
        and winner_cost <= baseline_cost
        and winner_attain >= baseline_attain
    )

    headline = {
        "duration_s": duration,
        "planner_winner": planned["winner"],
        "planner_cost_per_mreq": winner_cost,
        "planner_attainment": winner_attain,
        "planner_degraded_attainment": (winner.get("degraded") or {}).get(
            "attainment"
        ),
        "planner_feasible": planner_feasible,
        "naive_winner": naive["winner"],
        "naive_cost_per_mreq": baseline_cost,
        "naive_attainment": baseline_attain,
        "cost_ratio": (
            round(baseline_cost / winner_cost, 6)
            if winner_cost and baseline_cost
            else None
        ),
        "beats_naive": beats_naive,
        "candidates": planned["search"]["candidates"],
        "pruned": planned["search"]["pruned"],
        "simulated": planned["search"]["simulated"],
        "warm_cache_hits": warm_hits,
        "ranked_json_stable": stable,
    }
    payload = {
        "smoke": args.smoke,
        "planner": {k: v for k, v in planned.items() if k != "cache"},
        "naive": {k: v for k, v in naive.items() if k != "cache"},
        "headline": headline,
    }

    lines = [
        f"planner: {headline['candidates']} candidates, "
        f"{headline['pruned']} pruned analytically, "
        f"{headline['simulated']} simulated; winner "
        f"{headline['planner_winner']} at "
        f"{winner_cost:.1f} chip-cost/Mreq, "
        f"{winner_attain:.1%} attainment",
        f"naive:   winner {headline['naive_winner']} at "
        f"{baseline_cost:.1f} chip-cost/Mreq, "
        f"{baseline_attain:.1%} attainment "
        f"({headline['cost_ratio']:.2f}x planner's cost)",
        f"rerun:   {'byte-identical' if stable else 'DIFFERS'}, "
        f"{warm_hits} plan-cache hits",
    ]
    gates = [
        (
            planner_feasible,
            "the planner's winning deployment misses the SLO target",
        ),
        (
            beats_naive,
            "planner did not beat the best naive homogeneous fleet "
            "on cost at equal-or-better attainment",
        ),
        (stable, "ranked JSON differed between cold and warm runs"),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("capacity", run, __doc__))
