"""The what-if capacity planner: search deployments against SLOs and cost.

:func:`plan_capacity` answers the question a fleet owner actually asks:
*given this traffic forecast, these tenant SLOs, and this fault model,
which deployment should I buy?*  The search runs in three phases:

1. **bound** — every grid candidate gets an analytic capacity/attainment
   upper bound (:mod:`repro.capacity.bounds`).  Candidates whose *bound*
   is already below the SLO target are provably infeasible and are pruned
   before any simulation.
2. **simulate** — survivors are served for real through the shared
   candidate-evaluation path (:mod:`repro.serve.candidates`): a healthy
   run, and — when a fault model is given — a degraded run with the
   chip-level fault schedule mapped onto serving replicas through each
   candidate's topology (a crashed chip takes its whole pipeline group or
   all its co-resident partitions down with it).  Candidates fan out over
   ``jobs`` worker processes via :func:`~repro.perf.parallel.parallel_map`
   (``repro capacity --jobs N``; the one command with a pool, as each work
   item is a whole simulation); every per-layer schedule goes through the
   in-memory plan cache of the process that simulates it.
3. **rank** — feasible candidates (healthy worst-tenant attainment meets
   the target) by cost per million good requests, then infeasible ones by
   how close they come.  If pruning left no feasible survivor, a *rescue
   pass* simulates the pruned candidates too — so the ranking never
   differs from what exhaustive evaluation would have produced (the
   determinism tests hold this to account).

The report is a plain dict; :func:`report_to_json` serializes the stable
part byte-identically across reruns and ``--jobs`` settings (volatile
cache counters are text-report only).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.capacity.bounds import attainment_bound, candidate_capacity_rps
from repro.capacity.forecast import ForecastSpec
from repro.capacity.grid import Candidate, CandidateGrid
from repro.errors import ConfigError, check_count, check_counts, check_real
from repro.perf.cache import schedule_cache
from repro.perf.parallel import parallel_map
from repro.serve.metrics import to_json

__all__ = [
    "FaultModel",
    "plan_capacity",
    "render_report",
    "report_to_json",
]

#: chance that an SDC window corrupts each batch it covers
SDC_PER_BATCH = 1.0


@dataclass(frozen=True)
class FaultModel:
    """Chip-level chaos one planning run charges every candidate with.

    ``crashes``/``slowdowns`` draw a deterministic
    :class:`~repro.resilience.faults.FaultSchedule` against the
    candidate's *physical chips* (clamped to the fleet size — a 1-chip
    fleet losing its only chip is a legitimate, catastrophic outcome the
    ranking should see).  ``sdc_windows`` adds silent-data-corruption
    windows; whether corruptions are caught is the planner's ``abft``
    switch, not the fault model's.
    """

    seed: int = 1
    crashes: int = 1
    slowdowns: int = 0
    sdc_windows: int = 0

    def __post_init__(self) -> None:
        check_counts(self, "seed", minimum=None, owner="fault model ")
        check_counts(
            self, "crashes", "slowdowns", "sdc_windows", owner="fault model "
        )

    @property
    def any_faults(self) -> bool:
        return bool(self.crashes or self.slowdowns or self.sdc_windows)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "crashes": self.crashes,
            "slowdowns": self.slowdowns,
            "sdc_windows": self.sdc_windows,
            "sdc_per_batch": round(SDC_PER_BATCH, 6),
        }


def _round(value: float) -> float:
    return round(value, 6)


def _worst_tenant_attainment(summary: Dict[str, object]) -> float:
    """Min per-tenant deadline-hit rate — the SLO the weakest tenant sees."""
    per_tenant = summary.get("per_tenant") or {}
    rates = [
        group["deadline_hit_rate"]
        for group in per_tenant.values()
        if group["offered"]
    ]
    if not rates:
        return summary["deadline_hit_rate"]
    return min(rates)


def _trim(summary: Dict[str, object]) -> Dict[str, object]:
    """The stable, compact slice of an engine summary the report keeps."""
    out: Dict[str, object] = {
        "offered": summary["offered"],
        "completed": summary["completed"],
        "shed": summary["shed"],
        "deadline_met": summary["deadline_met"],
        "deadline_hit_rate": _round(summary["deadline_hit_rate"]),
        "attainment": _round(_worst_tenant_attainment(summary)),
        "goodput_rps": _round(summary["goodput_rps"]),
        "p95_ms": summary["latency_ms"]["p95"],
        "utilization": _round(summary["utilization"]),
        "makespan_s": _round(summary["makespan_s"]),
        "mean_batch_size": _round(summary["mean_batch_size"]),
    }
    integrity = summary.get("integrity")
    if integrity is not None:
        escaped = integrity["escaped_requests"]
        offered = summary["offered"]
        out["escaped_requests"] = escaped
        out["verified_attainment"] = _round(
            max(0.0, (summary["deadline_met"] - escaped) / offered)
            if offered
            else 0.0
        )
    return out


def _candidate_groups(candidate: Candidate, plan_policy: str, link_gbs: float):
    """The single replica group one candidate presents to the engine."""
    if candidate.strategy in ("pipeline", "data-parallel"):
        from repro.cluster.link import LinkSpec
        from repro.cluster.replica import PipelinedReplica

        shard = PipelinedReplica(
            candidate.config,
            candidate.group,
            link=LinkSpec(bandwidth_gbs=link_gbs),
            strategy=candidate.strategy,
            policy=plan_policy,
        )
        return [(candidate.config, candidate.n_replicas, shard)]
    return [(candidate.slot_config, candidate.n_replicas)]


def _mapped_faults(candidate: Candidate, fault_model: FaultModel, duration_s: float):
    """Draw the chip-level schedule and map it onto serving replicas."""
    from repro.resilience.faults import FaultSchedule
    from repro.serve.failover import ReplicaFault
    from repro.serve.verified import SDCFault

    crashes = min(fault_model.crashes, candidate.n_chips)
    schedule = FaultSchedule.seeded(
        fault_model.seed,
        n_replicas=candidate.n_chips,
        duration_s=duration_s,
        crashes=crashes,
        slowdowns=fault_model.slowdowns,
    )
    crash_at: Dict[int, float] = {}
    slows: List[ReplicaFault] = []
    for fault in schedule.replica_faults:
        for rid in candidate.chip_replica(fault.replica):
            if fault.kind == "crash":
                if rid not in crash_at or fault.time_s < crash_at[rid]:
                    crash_at[rid] = fault.time_s
            else:
                slows.append(
                    ReplicaFault(
                        "slow",
                        rid,
                        fault.time_s,
                        factor=fault.factor,
                        duration_s=fault.duration_s,
                    )
                )
    faults = [
        ReplicaFault("crash", rid, t) for rid, t in sorted(crash_at.items())
    ] + slows

    sdc: List[SDCFault] = []
    rng = random.Random(fault_model.seed + 7919)
    for i in range(fault_model.sdc_windows):
        chip = rng.randrange(candidate.n_chips)
        start = (0.2 + 0.6 * rng.random()) * duration_s
        rid = candidate.chip_replica(chip)[0]
        sdc.append(
            SDCFault(
                replica=rid,
                time_s=start,
                duration_s=0.1 * duration_s,
                per_batch=SDC_PER_BATCH,
                seed=fault_model.seed + i,
            )
        )
    return faults, sdc


#: per-worker-process memo: forecasts are tiny, request streams are not —
#: regenerate once per process instead of pickling them per work item
_REQUEST_MEMO: Dict[ForecastSpec, list] = {}


def _forecast_requests(forecast: ForecastSpec):
    requests = _REQUEST_MEMO.get(forecast)
    if requests is None:
        if len(_REQUEST_MEMO) > 4:
            _REQUEST_MEMO.clear()
        requests = _REQUEST_MEMO[forecast] = forecast.requests()
    return requests


def _evaluate_payload(
    payload: Tuple[
        Candidate, ForecastSpec, Optional[FaultModel], bool, str, float
    ],
) -> Tuple[Dict[str, object], Dict[str, int]]:
    """Worker: one candidate's healthy (and degraded) simulation.

    Returns ``(partial entry, plan-cache counter delta)`` — the delta lets
    the parent aggregate cache effectiveness across worker processes
    (fork-isolated counters never flow back on their own).
    """
    from repro.serve.batcher import BatchPolicy
    from repro.serve.candidates import evaluate_candidate
    from repro.serve.verified import VerificationPolicy

    candidate, forecast, fault_model, abft, plan_policy, link_gbs = payload
    before = schedule_cache.stats()
    requests = _forecast_requests(forecast)
    batch_policy = BatchPolicy(max_batch=candidate.max_batch)
    groups = _candidate_groups(candidate, plan_policy, link_gbs)
    verification = VerificationPolicy(enabled=True) if abft else None

    healthy = evaluate_candidate(
        groups,
        requests,
        forecast.duration_s,
        batch_policy=batch_policy,
        plan_policy=plan_policy,
        candidate=candidate.name,
        verification=verification,
    )

    degraded = None
    if fault_model is not None and fault_model.any_faults:
        faults, sdc = _mapped_faults(candidate, fault_model, forecast.duration_s)
        degraded_verification = verification
        if sdc and degraded_verification is None:
            # an unguarded tier still *experiences* the SDC windows; the
            # disabled policy makes every corruption escape and be counted
            degraded_verification = VerificationPolicy(enabled=False)
        degraded = evaluate_candidate(
            groups,
            requests,
            forecast.duration_s,
            batch_policy=batch_policy,
            plan_policy=plan_policy,
            candidate=candidate.name,
            faults=faults,
            sdc_faults=sdc,
            verification=degraded_verification,
        )

    after = schedule_cache.stats()
    delta = {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
    }
    entry: Dict[str, object] = {
        "healthy": _trim(healthy),
        "degraded": _trim(degraded) if degraded is not None else None,
    }
    return entry, delta


def _cost_per_mreq(candidate: Candidate, healthy: Dict[str, object]) -> float:
    """Chip-cost per million requests served within their SLO.

    Chip-seconds (fleet weight x healthy makespan, the equal-budget
    currency of :mod:`repro.tenancy`) divided by good requests, scaled to
    a million — the metric the ranking minimizes for feasible candidates.
    """
    chip_seconds = candidate.fleet_weight * healthy["makespan_s"]
    return 1e6 * chip_seconds / max(healthy["deadline_met"], 1)


def plan_capacity(
    grid: CandidateGrid,
    forecast: ForecastSpec,
    slo_target: float = 0.95,
    fault_model: Optional[FaultModel] = None,
    abft: bool = False,
    plan_policy: str = "adaptive-2",
    jobs: int = 1,
    prune: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Dict[str, object]:
    """Search the grid against the forecast; return the ranked report.

    ``jobs`` worker processes simulate the candidates (1, the default,
    simulates them in this process; -1 starts one per CPU; 0 is refused).
    ``progress`` is called as ``progress(done, total)`` after each
    simulated candidate.  The returned dict's ``"cache"`` section is
    volatile (counters differ across ``--jobs`` and cache warmth);
    :func:`report_to_json` strips it so the ranked JSON is byte-stable.
    """
    check_real(slo_target, "slo_target", gt=0, le=1)
    if check_count(jobs, "jobs", minimum=None) == 0:
        raise ConfigError("jobs must be nonzero (use -1 for all CPUs)")
    stats_before = schedule_cache.stats()

    candidates = grid.enumerate()
    requests = forecast.requests()
    n_requests = len(requests)

    # -- phase 1: analytic bounds -----------------------------------------
    coster_memo: Dict[object, object] = {}
    bounds: Dict[str, Dict[str, float]] = {}
    for candidate in candidates:
        capacity = candidate_capacity_rps(
            candidate,
            forecast,
            plan_policy=plan_policy,
            link_gbs=grid.link_gbs,
            coster_memo=coster_memo,
        )
        bounds[candidate.name] = {
            "capacity_rps": _round(capacity),
            "attainment": _round(
                attainment_bound(
                    capacity, n_requests, forecast.duration_s, forecast.max_slo_s
                )
            ),
        }

    if prune:
        survivors = [
            c for c in candidates if bounds[c.name]["attainment"] >= slo_target
        ]
        pruned = [
            c for c in candidates if bounds[c.name]["attainment"] < slo_target
        ]
    else:
        survivors, pruned = list(candidates), []

    # -- phase 2: simulate ------------------------------------------------
    def simulate(batch: List[Candidate]) -> List:
        payloads = [
            (c, forecast, fault_model, abft, plan_policy, grid.link_gbs)
            for c in batch
        ]
        return parallel_map(
            _evaluate_payload, payloads, jobs=jobs, progress=progress
        )

    evaluated: Dict[str, Dict[str, object]] = {}
    cache_delta = {"hits": 0, "misses": 0}

    def absorb(batch: List[Candidate], results: List) -> None:
        for candidate, (entry, delta) in zip(batch, results):
            for key in cache_delta:
                cache_delta[key] += delta[key]
            evaluated[candidate.name] = entry

    absorb(survivors, simulate(survivors))

    def is_feasible(name: str) -> bool:
        return evaluated[name]["healthy"]["attainment"] >= slo_target

    rescued = False
    if prune and pruned and not any(is_feasible(n) for n in evaluated):
        # nothing met the SLO: the exhaustive ranking would fall back to
        # "closest to target", which a pruned candidate could win — so the
        # bound no longer saves anything, simulate the remainder too
        rescued = True
        absorb(pruned, simulate(pruned))

    # -- phase 3: rank ----------------------------------------------------
    from repro.serve.candidates import rank_candidates

    deployments: Dict[str, Dict[str, object]] = {}
    for candidate in candidates:
        name = candidate.name
        entry: Dict[str, object] = {
            "candidate": candidate.to_dict(),
            "bound": bounds[name],
            "pruned": name not in evaluated,
        }
        simulated = evaluated.get(name)
        if simulated is not None:
            healthy = simulated["healthy"]
            entry["healthy"] = healthy
            entry["degraded"] = simulated["degraded"]
            entry["feasible"] = healthy["attainment"] >= slo_target
            entry["cost_per_mreq"] = _round(_cost_per_mreq(candidate, healthy))
        deployments[name] = entry

    feasible = {n: e for n, e in deployments.items() if e.get("feasible")}
    near = {
        n: e
        for n, e in deployments.items()
        if not e["pruned"] and not e.get("feasible")
    }
    unranked = {n: e for n, e in deployments.items() if e["pruned"]}
    ranking = (
        rank_candidates(
            feasible,
            key=lambda e: (
                e["cost_per_mreq"],
                -(e["degraded"] or e["healthy"])["attainment"],
            ),
        )
        + rank_candidates(
            near,
            key=lambda e: (
                -e["healthy"]["attainment"],
                e["cost_per_mreq"],
            ),
        )
        + rank_candidates(unranked, key=lambda e: (-e["bound"]["attainment"],))
    )

    stats_after = schedule_cache.stats()
    report: Dict[str, object] = {
        "forecast": dict(forecast.to_dict(), requests=n_requests),
        "grid": grid.to_dict(),
        "slo_target": _round(slo_target),
        "abft": abft,
        "fault_model": fault_model.to_dict() if fault_model else None,
        "plan_policy": plan_policy,
        "search": {
            "candidates": len(candidates),
            "pruned": len(candidates) - len(evaluated),
            "simulated": len(evaluated),
            "rescued": rescued,
            "feasible": len(feasible),
        },
        "deployments": deployments,
        "ranking": ranking,
        "winner": ranking[0],
        # volatile: counters depend on --jobs and cache warmth;
        # report_to_json strips this section to keep the ranking byte-stable
        "cache": {
            "workers": dict(cache_delta),
            "planner_hits": stats_after.hits - stats_before.hits,
            "planner_misses": stats_after.misses - stats_before.misses,
        },
    }
    return report


def report_to_json(report: Dict[str, object]) -> str:
    """Serialize the stable slice of a planner report, byte-reproducibly.

    Same grid + forecast + knobs → the identical byte string, independent
    of ``--jobs``, cache warmth, or rerun count: the volatile ``"cache"``
    section is excluded (it lives in :func:`render_report` instead).
    """
    return to_json({k: v for k, v in report.items() if k != "cache"})


def render_report(report: Dict[str, object], top: int = 0) -> str:
    """Human-readable planner verdict (includes the volatile cache stats)."""
    from repro.analysis.report import format_table

    search = report["search"]
    forecast = report["forecast"]
    lines = [
        f"capacity plan: {search['candidates']} candidates, "
        f"{search['pruned']} pruned analytically, "
        f"{search['simulated']} simulated"
        + (" (rescue pass ran)" if search["rescued"] else ""),
        f"forecast: {forecast['kind']} {forecast['rate_rps']:g} req/s "
        f"x {forecast['duration_s']:g} s, {forecast['requests']} requests, "
        f"SLO target {report['slo_target']:.1%}"
        + (", ABFT on" if report["abft"] else ""),
        "",
    ]
    rows = []
    names = report["ranking"][: top or None]
    for name in names:
        entry = report["deployments"][name]
        healthy = entry.get("healthy")
        degraded = entry.get("degraded")
        rows.append(
            [
                name,
                f"{entry['candidate']['fleet_weight']:g}",
                f"{entry['bound']['attainment']:.1%}",
                f"{healthy['attainment']:.1%}" if healthy else "pruned",
                f"{degraded['attainment']:.1%}" if degraded else "-",
                f"{entry['cost_per_mreq']:.2f}" if healthy else "-",
                "yes" if entry.get("feasible") else "no",
            ]
        )
    lines.append(
        format_table(
            ["deployment", "weight", "bound", "attained", "degraded",
             "cost/Mreq", "feasible"],
            rows,
        )
    )
    lines.append("")
    lines.append(f"winner: {report['winner']}")
    workers = report["cache"]["workers"]
    lookups = workers["hits"] + workers["misses"]
    rate = workers["hits"] / lookups if lookups else 0.0
    lines.append(
        f"plan cache: {workers['hits']} hits / {workers['misses']} misses "
        f"({rate:.1%}) in workers"
    )
    return "\n".join(lines)
