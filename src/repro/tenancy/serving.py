"""Serving a placed fleet: per-slot lanes, shared-chip accounting, rollups.

Each slot of a placed fleet runs its own single-replica
:class:`~repro.serve.engine.ServingEngine` over the requests of the
tenants pinned to it — a partition has its own admission queue and its
own batcher, which is exactly what static partitioning buys you (no
cross-tenant head-of-line blocking).  The per-lane metrics are merged
into one fleet-level :class:`~repro.serve.metrics.MetricsCollector`, so
the rollup carries the same percentile/goodput vocabulary as every other
serving report in the repo, plus:

* ``per_slot`` — one digest per lane (tenants, offered, p95, utilisation);
* ``per_chip`` — physical chips counted *once*, co-resident partitions
  contributing share-weighted busy time (satellite: shared-chip
  accounting);
* ``fleet`` — cost-normalised chip-seconds (``total_weight x makespan``)
  for equal-budget comparisons;
* ``placement`` — the placer's verdict, embedded for provenance.

Two comparison drivers produce the headline experiments:
:func:`compare_partitioned` (co-resident partitions vs time-multiplexing
the whole chip) and :func:`compare_fleets` (heterogeneous vs homogeneous
compositions at equal cost).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_real
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.candidates import rank_candidates
from repro.serve.engine import (
    ReplicaState,
    ServingEngine,
    engine_summary,
    per_chip_rollup,
)
from repro.serve.metrics import MetricsCollector
from repro.serve.queue import QueuePolicy
from repro.serve.workload import Arrivals, MixedTenantSpec, Request, mixed_arrivals
from repro.tenancy.fleet import ChipSpec, FleetSpec
from repro.tenancy.partition import PartitionSpec
from repro.tenancy.placement import (
    Placement,
    _FitModel,
    demand_from_tenants,
    place_tenants,
)

__all__ = [
    "serve_placement",
    "compare_partitioned",
    "compare_fleets",
    "worst_tenant_p95",
]


def worst_tenant_p95(summary: Dict[str, object]) -> float:
    """The slowest tenant's p95 latency (ms) — the fairness headline.

    A multi-tenant deployment is judged by its unhappiest tenant: mean
    latency hides one tenant starving behind another's batches.
    """
    per_tenant = summary.get("per_tenant", {})
    if not per_tenant:
        return 0.0
    return max(group["latency_ms"]["p95"] for group in per_tenant.values())


def serve_placement(
    fleet: FleetSpec,
    placement: Placement,
    requests: Sequence[Request],
    duration_s: float,
    batch_policy: BatchPolicy = BatchPolicy(),
    queue_policy: QueuePolicy = QueuePolicy(),
    plan_policy: str = "adaptive-2",
    extra_meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Simulate serving ``requests`` on a placed fleet; return the rollup.

    Requests belonging to tenants the placement does not know are a hard
    error (a tenant with traffic but no slot would silently vanish from
    the accounting otherwise).
    """
    check_real(duration_s, "duration", gt=0)
    slots = fleet.slots()
    by_id = {s.slot_id: s for s in slots}
    stream = Arrivals.from_requests(requests)
    used = [stream.tenants[code] for code in np.unique(stream.tenant).tolist()]
    unknown = sorted(set(used) - set(placement.slot_of))
    if unknown:
        raise ConfigError(
            f"requests from unplaced tenants {unknown}; every tenant with "
            f"traffic needs a slot (placed: {sorted(placement.slot_of)})"
        )

    # each lane serves its tenants' rows, which keep their request ids
    slot_of_code = np.array(
        [placement.slot_of.get(name, -1) for name in stream.tenants], dtype=np.int64
    )
    slot_of_row = slot_of_code[stream.tenant]
    lane_requests = {
        slot_id: stream.take(np.flatnonzero(slot_of_row == slot_id))
        for slot_id in sorted({placement.slot_of[name] for name in used})
    }

    costers: Dict[AcceleratorConfig, BatchCoster] = {}
    merged = MetricsCollector()
    lane_digests: Dict[str, Dict[str, object]] = {}
    chip_replicas: List[ReplicaState] = []
    busy_s = 0.0
    makespan_s = duration_s
    for slot_id in sorted(lane_requests):
        slot = by_id[slot_id]
        coster = costers.get(slot.config)
        if coster is None:
            coster = costers[slot.config] = BatchCoster(
                slot.config, policy=plan_policy
            )
        engine = ServingEngine(
            slot.config,
            batch_policy=batch_policy,
            queue_policy=queue_policy,
            replicas=1,
            plan_policy=plan_policy,
            coster=coster,
            chip_map={0: slot.chip_id},
            chip_shares={0: slot.share},
        )
        report = engine.run(lane_requests[slot_id], duration_s)
        merged.merge(report.metrics)
        lane = report.replicas[0]
        busy_s += lane.busy_s
        makespan_s = max(makespan_s, report.summary["makespan_s"])
        chip_replicas.append(
            ReplicaState(
                rid=slot_id,
                busy_s=lane.busy_s,
                batches=lane.batches,
                completed=lane.completed,
                chip=slot.chip_id,
                chip_share=slot.share,
            )
        )
        lane_digests[str(slot_id)] = {
            "chip": slot.chip_id,
            "geometry": slot.config.name,
            "share": round(slot.share, 6),
            "partition": slot.partition,
            "tenants": placement.tenants_on(slot_id),
            "offered": report.summary["offered"],
            "completed": report.summary["completed"],
            "shed": report.summary["shed"],
            "p95_ms": report.summary["latency_ms"]["p95"],
            "utilization": report.summary["utilization"],
            "mean_batch_size": report.summary["mean_batch_size"],
        }

    summary = merged.summary(
        duration_s, max(1, len(lane_requests)), busy_s, makespan_s=makespan_s
    )
    summary["per_slot"] = lane_digests
    # every chip in the fleet is provisioned for the whole run, busy or
    # idle — spans cover all chips so idle silicon shows up as low
    # utilization instead of disappearing from the bill
    chips_seen = {r.chip for r in chip_replicas}
    for slot in slots:
        if slot.chip_id not in chips_seen:
            chips_seen.add(slot.chip_id)
            chip_replicas.append(
                ReplicaState(
                    rid=len(slots) + len(chip_replicas),
                    chip=slot.chip_id,
                    chip_share=slot.share,
                )
            )
    summary["per_chip"] = per_chip_rollup(
        chip_replicas, {chip: makespan_s for chip in chips_seen}
    )
    summary["fleet"] = {
        "name": fleet.name,
        "total_weight": round(fleet.total_weight(), 6),
        "weighted_chip_seconds": round(
            fleet.total_weight() * makespan_s, 6
        ),
        "slots": len(slots),
        "lanes_used": len(lane_requests),
    }
    summary["placement"] = placement.to_dict()
    summary["engine"] = engine_summary(
        "fleet", plan_policy, batch_policy, queue_policy, "pinned"
    )
    if extra_meta:
        summary["workload"] = dict(sorted(extra_meta.items()))
    return summary


def _tenant_meta(
    tenants: Sequence[MixedTenantSpec], rate: float, seed: int
) -> Dict[str, object]:
    return {
        "kind": "mixed",
        "rate_rps": rate,
        "seed": seed,
        "tenants": ",".join(
            f"{t.name}={'/'.join(f'{n}:{s:g}' for n, s in t.mix)}@{t.weight:g}"
            for t in tenants
        ),
    }


def compare_partitioned(
    config: AcceleratorConfig,
    specs: Sequence[PartitionSpec],
    tenants: Sequence[MixedTenantSpec],
    rate: float,
    duration_s: float,
    seed: int = 0,
    batch_policy: BatchPolicy = BatchPolicy(),
    queue_policy: QueuePolicy = QueuePolicy(),
    plan_policy: str = "adaptive-2",
) -> Dict[str, object]:
    """Co-resident partitions vs time-multiplexing the whole chip.

    Both sides see the identical seeded request stream and hold exactly
    one physical chip for the whole run, so chip-seconds are equal by
    construction; the question is purely whether carving the array beats
    sharing it.  The headline is worst-tenant p95 — time-multiplexing
    couples the tenants through one queue, partitioning isolates them.
    """
    requests = mixed_arrivals(rate, duration_s, tenants, seed=seed)
    meta = _tenant_meta(tenants, rate, seed)

    fleet = FleetSpec(
        name=f"{config.name}-partitioned",
        chips=(
            ChipSpec(
                name="chip", config=config, count=1, partitions=tuple(specs)
            ),
        ),
    )
    demands = demand_from_tenants(tenants, rate)
    placement = place_tenants(fleet, demands, plan_policy=plan_policy)
    partitioned = serve_placement(
        fleet,
        placement,
        requests,
        duration_s,
        batch_policy=batch_policy,
        queue_policy=queue_policy,
        plan_policy=plan_policy,
        extra_meta=meta,
    )

    engine = ServingEngine(
        config,
        batch_policy=batch_policy,
        queue_policy=queue_policy,
        replicas=1,
        plan_policy=plan_policy,
        chip_map={0: "chip0"},
    )
    timemux = engine.run(requests, duration_s, extra_meta=meta).summary

    p95_part = worst_tenant_p95(partitioned)
    p95_mux = worst_tenant_p95(timemux)
    return {
        "scenario": {
            "chip": config.name,
            "partitions": [s.to_dict() for s in specs],
            "tenants": [
                {
                    "name": t.name,
                    "mix": {n: round(s, 6) for n, s in t.mix},
                    "weight": round(t.weight, 6),
                    "slo_ms": round(t.slo_ms, 6),
                }
                for t in tenants
            ],
            "rate_rps": round(rate, 6),
            "duration_s": round(duration_s, 6),
            "seed": seed,
        },
        "partitioned": partitioned,
        "timemux": timemux,
        "headline": {
            "worst_tenant_p95_ms": {
                "partitioned": round(p95_part, 6),
                "timemux": round(p95_mux, 6),
            },
            "p95_ratio": round(p95_mux / p95_part, 6) if p95_part else 0.0,
            "partitioned_wins": p95_part < p95_mux,
            "goodput_rps": {
                "partitioned": partitioned["goodput_rps"],
                "timemux": timemux["goodput_rps"],
            },
        },
    }


def compare_fleets(
    fleets: Sequence[FleetSpec],
    tenants: Sequence[MixedTenantSpec],
    rate: float,
    duration_s: float,
    seed: int = 0,
    batch_policy: BatchPolicy = BatchPolicy(),
    queue_policy: QueuePolicy = QueuePolicy(),
    plan_policy: str = "adaptive-2",
) -> Dict[str, object]:
    """Fleet compositions racing on the identical seeded workload.

    Fleets should be built to (near-)equal ``total_weight`` — the rollup
    records each fleet's weight so an unequal comparison is visible, and
    the verdict ranks on (worst-tenant p95, -goodput, name) through the
    shared :func:`~repro.serve.candidates.rank_candidates` path.
    """
    if not fleets:
        raise ConfigError("compare_fleets needs at least one fleet")
    names = [f.name for f in fleets]
    if len(set(names)) != len(names):
        raise ConfigError(f"fleet names must be unique, got {names}")
    requests = mixed_arrivals(rate, duration_s, tenants, seed=seed)
    meta = _tenant_meta(tenants, rate, seed)
    demands = demand_from_tenants(tenants, rate)

    results: Dict[str, Dict[str, object]] = {}
    fit = _FitModel(plan_policy)
    for fleet in fleets:
        placement = place_tenants(fleet, demands, plan_policy=plan_policy, fit=fit)
        results[fleet.name] = serve_placement(
            fleet,
            placement,
            requests,
            duration_s,
            batch_policy=batch_policy,
            queue_policy=queue_policy,
            plan_policy=plan_policy,
            extra_meta=meta,
        )

    ranked = rank_candidates(
        results,
        key=lambda s: (worst_tenant_p95(s), -s["goodput_rps"]),
    )
    return {
        "scenario": {
            "fleets": {f.name: round(f.total_weight(), 6) for f in fleets},
            "tenants": [t.name for t in tenants],
            "rate_rps": round(rate, 6),
            "duration_s": round(duration_s, 6),
            "seed": seed,
        },
        "fleets": results,
        "headline": {
            "ranking": ranked,
            "winner": ranked[0],
            "worst_tenant_p95_ms": {
                name: round(worst_tenant_p95(results[name]), 6)
                for name in sorted(results)
            },
            "goodput_rps": {
                name: results[name]["goodput_rps"] for name in sorted(results)
            },
        },
    }
