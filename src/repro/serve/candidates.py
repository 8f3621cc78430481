"""One shared candidate-evaluation path for deployment comparisons.

The ``repro capacity`` what-if planner races deployments on the identical
workload — one big chip against N small ones, heterogeneous replica sets,
pipelined and data-parallel shards — in three steps:

1. **build** — turn a list of *replica groups* ``(config, count[, coster])``
   into the per-replica costers, chip labels and lead config a
   :class:`~repro.serve.engine.ServingEngine` wants;
2. **run** — serve the shared request stream through one engine per
   candidate, identical batching/queueing/routing knobs on every side;
3. **rank** — order the resulting summaries by a deterministic key with
   the candidate name as the final tiebreaker (``tenancy.compare_fleets``
   ranks its placed fleets here too).

A *group* is ``(config, count)`` or ``(config, count, coster)`` — the
optional third element substitutes a custom BatchCoster-compatible object
(e.g. a :class:`~repro.cluster.replica.PipelinedReplica`, so one "replica"
can be a whole sharded deployment).  Groups with identical configs share
one coster, so a candidate plans each config once.

A fault schedule, SDC windows or a verification policy, when supplied,
go to the same engine, which then serves a failover run of the candidate,
mixed fleets included.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_count
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import ServingEngine
from repro.serve.workload import Request

__all__ = [
    "build_replica_set",
    "evaluate_candidate",
    "rank_candidates",
]


def _normalize_groups(
    groups: Sequence[Tuple], candidate: str
) -> List[Tuple[AcceleratorConfig, int, Optional[object]]]:
    """Validate ``(config, count[, coster])`` entries, preserving order."""
    if not groups:
        raise ConfigError(f"candidate {candidate!r} has no chip groups")
    out: List[Tuple[AcceleratorConfig, int, Optional[object]]] = []
    for gi, entry in enumerate(groups):
        if len(entry) == 2:
            config, count = entry
            coster = None
        elif len(entry) == 3:
            config, count, coster = entry
        else:
            raise ConfigError(
                f"candidate {candidate!r} group {gi}: expected "
                f"(config, count[, coster]), got {len(entry)} elements"
            )
        count = check_count(count, f"candidate {candidate!r} group {gi}: count", 1)
        out.append((config, count, coster))
    return out


def build_replica_set(
    groups: Sequence[Tuple],
    plan_policy: str = "adaptive-2",
    candidate: str = "candidate",
) -> Tuple[AcceleratorConfig, List[object], Dict[int, str]]:
    """Flatten replica groups into engine arguments.

    Returns ``(lead_config, replica_costers, chip_map)`` — replicas laid
    out in group order, chips labelled ``"<config> g<group>-<instance>"``.
    """
    normalized = _normalize_groups(groups, candidate)
    coster_memo: Dict[AcceleratorConfig, BatchCoster] = {}
    replica_costers: List[object] = []
    chip_map: Dict[int, str] = {}
    lead_config: Optional[AcceleratorConfig] = None
    for gi, (config, count, coster) in enumerate(normalized):
        if lead_config is None:
            lead_config = config
        if coster is None:
            coster = coster_memo.get(config)
            if coster is None:
                coster = coster_memo[config] = BatchCoster(
                    config, policy=plan_policy
                )
        for instance in range(count):
            rid = len(replica_costers)
            replica_costers.append(coster)
            chip_map[rid] = f"{config.name} g{gi}-{instance}"
    assert lead_config is not None
    return lead_config, replica_costers, chip_map


def evaluate_candidate(
    groups: Sequence[Tuple],
    requests: Sequence[Request],
    duration_s: float,
    batch_policy: BatchPolicy = BatchPolicy(),
    plan_policy: str = "adaptive-2",
    candidate: str = "candidate",
    faults: Sequence[object] = (),
    sdc_faults: Sequence[object] = (),
    verification: Optional[object] = None,
) -> Dict[str, object]:
    """Serve ``requests`` on one candidate deployment; return its summary.

    Every candidate is served least-loaded behind the default queue, on a
    :class:`~repro.serve.engine.ServingEngine` built from the replica
    groups.  Any fault input makes it a failover run, so planners score
    the same candidate healthy and under chaos through one call.
    """
    lead_config, replica_costers, chip_map = build_replica_set(
        groups, plan_policy=plan_policy, candidate=candidate
    )
    engine = ServingEngine(
        lead_config,
        batch_policy=batch_policy,
        replicas=len(replica_costers),
        routing="least-loaded",
        plan_policy=plan_policy,
        coster=replica_costers[0],
        replica_costers=replica_costers,
        chip_map=chip_map,
        faults=faults,
        sdc_faults=sdc_faults,
        verification=verification,
    )
    return engine.run(requests, duration_s).summary


def rank_candidates(
    results: Dict[str, Dict[str, object]],
    key: Callable[[Dict[str, object]], Tuple],
) -> List[str]:
    """Order candidate names by ``key(summary)``, name as final tiebreak.

    Every comparison driver ranks through here so "same key → same order"
    holds across the CLIs and the capacity planner, and rollup JSON stays
    byte-stable.
    """
    return sorted(results, key=lambda name: tuple(key(results[name])) + (name,))
