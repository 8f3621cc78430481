"""Analytic capacity bounds: the planner's pruning oracle.

Simulating every grid point is the expensive part of a what-if search, so
the planner first scores each candidate with a cheap *optimistic* bound
and only simulates the ones the bound cannot rule out.  The contract that
makes pruning safe is one-sided: the bound must never be *below* what the
simulator could achieve.  It is built from best-case ingredients only —

* per-replica service rate: the best (highest-throughput) batch size the
  candidate's batching cap allows, probed at powers of two, costed through
  :func:`~repro.adaptive.batch.plan_batch` via the shared coster (so the
  bound itself warms the schedule cache the simulation reuses);
* the traffic's expected network mix (tenant weights folded into
  per-network shares) — a fluid-limit average with no queueing, no
  batch-formation waits, no head-of-line blocking;
* completion slack: every request arriving before ``duration_s`` may
  finish up to the most lenient SLO later, so the bound credits
  ``capacity x (duration + max_slo)`` completions.

A candidate whose *bound* on SLO attainment is already below the target
cannot meet it in simulation (the simulator adds queueing and batching
delay on top, never removes work).  The planner prunes exactly on that
predicate — see ``docs/capacity.md`` for the proof obligation and the
regression test that holds it to account.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arch.config import AcceleratorConfig
from repro.capacity.forecast import ForecastSpec
from repro.capacity.grid import Candidate
from repro.serve.batcher import BatchCoster, mix_image_seconds

__all__ = [
    "attainment_bound",
    "candidate_capacity_rps",
    "probe_batches",
]


def probe_batches(max_batch: int) -> List[int]:
    """Batch sizes the bound probes: powers of two up to the cap, plus it."""
    probes = [1]
    b = 2
    while b < max_batch:
        probes.append(b)
        b *= 2
    if max_batch > 1:
        probes.append(max_batch)
    return probes


def candidate_capacity_rps(
    candidate: Candidate,
    forecast: ForecastSpec,
    plan_policy: str = "adaptive-2",
    link_gbs: float = 25.0,
    coster_memo: Optional[Dict[AcceleratorConfig, BatchCoster]] = None,
) -> float:
    """Optimistic sustainable throughput (req/s) of one candidate.

    Per-replica service rate at the best probed batch size, times the
    replica count.  Sharded strategies cost through the same
    :class:`~repro.cluster.replica.PipelinedReplica` model the simulation
    uses, so the bound and the simulator agree on what a shard *can* do —
    they differ only in the queueing the bound ignores.
    """
    shares = forecast.network_shares()
    if candidate.strategy in ("pipeline", "data-parallel"):
        from repro.cluster.link import LinkSpec
        from repro.cluster.replica import PipelinedReplica

        coster = PipelinedReplica(
            candidate.config,
            candidate.group,
            link=LinkSpec(bandwidth_gbs=link_gbs),
            strategy=candidate.strategy,
            policy=plan_policy,
        )
    else:
        config = candidate.slot_config
        if coster_memo is None:
            coster_memo = {}
        coster = coster_memo.get(config)
        if coster is None:
            coster = coster_memo[config] = BatchCoster(config, policy=plan_policy)
    best_image_s = min(
        mix_image_seconds(coster, shares, b)
        for b in probe_batches(candidate.max_batch)
    )
    return candidate.n_replicas / best_image_s


def attainment_bound(
    capacity_rps: float, n_requests: int, duration_s: float, max_slo_s: float
) -> float:
    """Upper bound on deadline-hit rate given offered load and capacity.

    At most ``capacity x (duration + slack)`` requests can complete within
    deadline; dividing by the offered count and clamping to 1 gives a
    fluid-limit attainment no schedule can beat.
    """
    if n_requests <= 0:
        return 1.0
    return min(1.0, capacity_rps * (duration_s + max_slo_s) / n_requests)
