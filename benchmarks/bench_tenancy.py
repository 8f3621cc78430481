"""Tenancy benchmark: chip partitioning and heterogeneous fleets.

Two headline experiments, both on seeded workloads in simulated
accelerator time (deterministic across reruns):

1. **Partitioned co-residency vs time-multiplexing** — a 32-32 chip is
   carved into two 16x32 column strips, one per tenant, and races the
   same chip serving both tenants through one shared queue.  The tenants
   run small-geometry mixes (alexnet/nin) that *underutilize* the full
   array — half the array keeps ~58% of the capacity, so the two strips
   together out-serve the pooled chip — and the offered rate sits in the
   window where the pooled queue goes unstable but each strip stays
   below saturation.  Chip-seconds are equal by construction (one
   physical chip, same duration, both sides).  Gate: the partitioned
   deployment wins on worst-tenant p95.

2. **Heterogeneous vs homogeneous fleets at equal cost** — a vgg tenant
   (compute-bound, 3.5x faster on a 32-32) plus three small-network
   tenants served on three fleets of equal cost weight (multipliers /
   256): ``het`` = 1x 32-32 + 4x 16-16, ``homog-small`` = 8x 16-16,
   ``homog-big`` = 2x 32-32.  The small fleet has nowhere good to put
   vgg; the big fleet has too few slots to isolate four tenants.  Gate:
   the heterogeneous placement wins on worst-tenant p95.

Writes ``BENCH_tenancy.json``.  Exits nonzero if either gate fails or
if the rollups are not byte-identical across two runs.  ``--smoke``
offers load for 5 s instead of 20 s.

Usage::

    PYTHONPATH=src python benchmarks/bench_tenancy.py [--smoke] [--output BENCH_tenancy.json]
"""

from __future__ import annotations

import sys

from harness import main, stable

from repro.arch.config import CONFIG_32_32
from repro.serve.workload import parse_tenant_mix
from repro.tenancy import (
    compare_fleets,
    compare_partitioned,
    even_partitions,
    parse_fleet,
    worst_tenant_p95,
)

PARTITION_TENANTS = "acme=alexnet:9/nin:1,beta=alexnet:4/nin:1"
PARTITION_RATE = 470.0
PARTITION_SEED = 1

FLEET_TENANTS = "ml=vgg@30,app1=alexnet@200,app2=nin@190,app3=alexnet:1/nin:1@180"
FLEET_RATE = 600.0
FLEET_SEED = 2

SLO_MS = 250.0
FULL_DURATION_S = 20.0
SMOKE_DURATION_S = 5.0


def run_partition_scenario(duration_s: float):
    tenants = parse_tenant_mix(PARTITION_TENANTS, slo_ms=SLO_MS)
    specs = even_partitions(CONFIG_32_32, 2)
    return compare_partitioned(
        CONFIG_32_32,
        specs,
        tenants,
        PARTITION_RATE,
        duration_s,
        seed=PARTITION_SEED,
    )


def run_fleet_scenario(duration_s: float):
    tenants = parse_tenant_mix(FLEET_TENANTS, slo_ms=SLO_MS)
    fleets = [
        parse_fleet("big:32-32:1,small:16-16:4", name="het"),
        parse_fleet("small:16-16:8", name="homog-small"),
        parse_fleet("big:32-32:2", name="homog-big"),
    ]
    return compare_fleets(
        fleets, tenants, FLEET_RATE, duration_s, seed=FLEET_SEED
    )


def run(args):
    duration = SMOKE_DURATION_S if args.smoke else FULL_DURATION_S
    part, part_stable = stable(lambda: run_partition_scenario(duration))
    fleet, fleet_stable = stable(lambda: run_fleet_scenario(duration))
    deterministic = part_stable and fleet_stable

    het_p95 = worst_tenant_p95(fleet["fleets"]["het"])
    best_homog = min(
        worst_tenant_p95(fleet["fleets"][name])
        for name in ("homog-small", "homog-big")
    )
    part_p95 = part["headline"]["worst_tenant_p95_ms"]
    headline = {
        "duration_s": duration,
        "partitioned_worst_p95_ms": part_p95["partitioned"],
        "timemux_worst_p95_ms": part_p95["timemux"],
        "partitioned_wins": part["headline"]["partitioned_wins"],
        "partition_p95_ratio": part["headline"]["p95_ratio"],
        "het_worst_p95_ms": round(het_p95, 6),
        "best_homogeneous_worst_p95_ms": round(best_homog, 6),
        "het_wins": het_p95 < best_homog,
        "fleet_winner": fleet["headline"]["winner"],
        "equal_fleet_weights": len(set(fleet["scenario"]["fleets"].values())) == 1,
        "rollups_deterministic": deterministic,
    }
    payload = {
        "smoke": args.smoke,
        "partition_scenario": part,
        "fleet_scenario": fleet,
        "headline": headline,
    }

    lines = [
        "partition: worst-tenant p95 "
        f"{headline['partitioned_worst_p95_ms']:.1f} ms partitioned vs "
        f"{headline['timemux_worst_p95_ms']:.1f} ms time-multiplexed "
        f"({headline['partition_p95_ratio']:.2f}x) at "
        f"{PARTITION_RATE:g} req/s on one 32-32 chip",
        "fleet:     worst-tenant p95 "
        f"{headline['het_worst_p95_ms']:.1f} ms heterogeneous vs "
        f"{headline['best_homogeneous_worst_p95_ms']:.1f} ms best "
        f"homogeneous at equal cost weight (winner: "
        f"{headline['fleet_winner']})",
    ]
    gates = [
        (
            headline["partitioned_wins"],
            "partitioned co-residency lost to time-multiplexing on "
            "worst-tenant p95",
        ),
        (
            headline["het_wins"],
            "heterogeneous fleet lost to the best homogeneous fleet "
            "on worst-tenant p95",
        ),
        (headline["equal_fleet_weights"], "fleet cost weights are not equal"),
        (deterministic, "rollups differed between identical runs"),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("tenancy", run, __doc__))
