"""Chaos scenarios: one fault schedule + one workload → one rollup dict.

A :class:`ChaosScenario` pins everything a chaos run needs — tenant mix,
arrival rate, replica count, the :class:`~repro.resilience.faults.FaultSchedule`,
failover policy — and :func:`run_scenario` executes the pair of runs that
makes the numbers meaningful: the *same seeded requests* once on a healthy
tier and once under the schedule, both through the
:class:`~repro.serve.failover.FailoverEngine`.  The rollup reports:

* **availability** — completed over offered under fault;
* **goodput under fault** — deadline-met throughput, absolute and relative
  to the healthy run;
* **MTTR** — time from the first crash until windowed goodput recovers to
  the survivor fraction of healthy steady-state goodput;
* **degraded-vs-healthy latency ratios** — p50/p95/p99 under fault over
  healthy;
* optional **degrade** (PE mask → Algorithm 2 replan) and **repair**
  (pipeline chip loss → DP rebalance) sections;
* optional **integrity** section when the scenario carries SDC windows or
  a verification policy: corruption/detection/escape counters, which
  replicas were drained, and the verified-vs-unverified latency ratio
  (measured against an extra verified run on the *healthy* tier, so the
  overhead is isolated from the fault's own damage).

A scenario may also declare **invariants** — named predicates over the
rollup (``zero-escaped``: no corrupted batch escaped the ABFT check;
``sdc-drained``: every SDC-targeted replica ended up drained).  They are
evaluated into ``rollup["invariants"]`` and the ``repro chaos`` CLI exits
non-zero when any is false, which is what makes the CI smoke job an
actual regression gate.

Every number is a deterministic function of (scenario, seed): rendering the
rollup through :func:`repro.serve.metrics.to_json` is byte-stable, and the
runner *raises* if any request fails to terminate — the accounting
invariant ``offered == completed + shed + failed`` is enforced, not hoped
for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.cluster.link import LinkSpec
from repro.cluster.pipeline import plan_pipeline
from repro.errors import ConfigError
from repro.resilience.degrade import replan_degraded
from repro.resilience.faults import FaultSchedule, PEMask, flapping_link
from repro.resilience.repair import repair_pipeline
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.failover import FailoverEngine, FailoverPolicy
from repro.serve.queue import QueuePolicy
from repro.serve.verified import SDCFault, VerificationPolicy
from repro.serve.workload import parse_mix, poisson_arrivals

__all__ = [
    "ChaosScenario",
    "run_scenario",
    "build_scenario",
    "INVARIANT_NAMES",
    "SCENARIO_NAMES",
]

#: invariants a scenario may declare; evaluated into ``rollup["invariants"]``
INVARIANT_NAMES = ("zero-silent-drops", "zero-escaped", "sdc-drained")


@dataclass(frozen=True)
class ChaosScenario:
    """One named, fully-pinned chaos experiment."""

    name: str
    description: str
    schedule: FaultSchedule
    mix: str = "alexnet"
    rate_rps: float = 120.0
    duration_s: float = 4.0
    replicas: int = 3
    seed: int = 1
    routing: str = "least-loaded"
    slo_ms: float = 250.0
    max_batch: int = 8
    failover_policy: FailoverPolicy = field(default_factory=FailoverPolicy)
    #: pipeline context for link faults and chip-loss repair (1 = none)
    chips: int = 1
    lost_chips: Tuple[int, ...] = ()
    link: LinkSpec = field(default_factory=LinkSpec)
    #: goodput-series window for the MTTR scan
    window_s: float = 0.25
    #: per-batch ABFT verification on the faulted tier (None = unguarded)
    verification: Optional[VerificationPolicy] = None
    #: named rollup predicates the CLI turns into exit codes
    invariants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ConfigError(f"replicas must be positive, got {self.replicas!r}")
        for inv in self.invariants:
            if inv not in INVARIANT_NAMES:
                raise ConfigError(
                    f"unknown invariant {inv!r}; choose from {INVARIANT_NAMES}"
                )
        if self.chips <= 0:
            raise ConfigError(f"chips must be positive, got {self.chips!r}")
        if not self.window_s > 0:
            raise ConfigError(f"window_s must be positive, got {self.window_s!r}")
        if self.schedule.link_faults and self.chips < 2:
            raise ConfigError(
                f"scenario {self.name!r} schedules link faults but has no "
                "inter-chip link (chips < 2)"
            )
        self.schedule.validate_for(self.replicas)

    def meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "mix": self.mix,
            "rate_rps": round(self.rate_rps, 6),
            "duration_s": round(self.duration_s, 6),
            "replicas": self.replicas,
            "chips": self.chips,
            "lost_chips": list(self.lost_chips),
            "seed": self.seed,
            "routing": self.routing,
            "slo_ms": round(self.slo_ms, 6),
            "max_batch": self.max_batch,
            "window_ms": round(self.window_s * 1e3, 6),
            "verification": self.verification.describe()
            if self.verification is not None
            else None,
            "invariants": list(self.invariants),
        }


# -- pieces of the rollup ---------------------------------------------------


def _run_digest(summary: Dict[str, object]) -> Dict[str, object]:
    lat = summary["latency_ms"]
    return {
        "offered": summary["offered"],
        "completed": summary["completed"],
        "shed": summary["shed"],
        "failed": summary["failed"],
        "failed_by_reason": summary["failed_by_reason"],
        "goodput_rps": summary["goodput_rps"],
        "throughput_rps": summary["throughput_rps"],
        "deadline_hit_rate": summary["deadline_hit_rate"],
        "utilization": summary["utilization"],
        "latency_ms": {
            "p50": lat["p50"],
            "p95": lat["p95"],
            "p99": lat["p99"],
        },
        "makespan_s": summary["makespan_s"],
    }


def goodput_series(
    records, start_s: float, end_s: float, window_s: float
) -> List[Tuple[float, float]]:
    """(window start, deadline-met completions / window) from ``start_s``."""
    if end_s <= start_s:
        return []
    n_windows = int(math.ceil((end_s - start_s) / window_s))
    counts = [0] * n_windows
    for r in records:
        if not r.met_deadline:
            continue
        k = int((r.finish_s - start_s) // window_s)
        if 0 <= k < n_windows:
            counts[k] += 1
    return [
        (start_s + k * window_s, counts[k] / window_s)
        for k in range(n_windows)
    ]


def mttr_ms(
    series: Sequence[Tuple[float, float]], target: float, window_s: float
) -> Optional[float]:
    """The MTTR scan: ms until the end of the first window whose goodput
    clears ``target``, or ``None`` if none does."""
    for k, (_, goodput) in enumerate(series):
        if goodput >= target:
            return round((k + 1) * window_s * 1e3, 6)
    return None


def _recovery(
    scenario: ChaosScenario,
    schedule: FaultSchedule,
    healthy_summary: Dict[str, object],
    faulted_records,
    faulted_makespan_s: float,
) -> Dict[str, object]:
    """The MTTR scan: when does windowed goodput clear the survivor bar?"""
    first_crash = schedule.first_crash_s()
    crashed = len({f.replica for f in schedule.crashes})
    survivor_frac = (scenario.replicas - crashed) / scenario.replicas
    target = survivor_frac * float(healthy_summary["goodput_rps"])
    out: Dict[str, object] = {
        "first_crash_ms": round(first_crash * 1e3, 6)
        if first_crash is not None
        else None,
        "crashed_replicas": crashed,
        "survivor_fraction": round(survivor_frac, 6),
        "target_goodput_rps": round(target, 6),
        "mttr_ms": None,
        "recovered": False,
        "goodput_series": [],
    }
    if first_crash is None:
        return out
    series = goodput_series(
        faulted_records, first_crash, faulted_makespan_s, scenario.window_s
    )
    out["goodput_series"] = [
        {"t_ms": round(t * 1e3, 6), "goodput_rps": round(g, 6)}
        for t, g in series
    ]
    if crashed >= scenario.replicas:
        return out  # nothing left to recover onto
    out["mttr_ms"] = mttr_ms(series, target, scenario.window_s)
    out["recovered"] = out["mttr_ms"] is not None
    return out


def _link_windows(
    scenario: ChaosScenario, config: AcceleratorConfig
) -> List[Tuple[float, float, float]]:
    """Link faults → global service-time windows for the serving tier.

    Each replica is a ``chips``-stage pipeline internally; a degraded
    interconnect stretches the pipeline bottleneck.  The stage cuts stay
    *frozen at the healthy partition* — a flap is transient, nobody
    repartitions mid-window — so the multiplier is the healthy cut's
    bottleneck repriced at the degraded link, over the healthy bottleneck
    (computed on the mix's first network, the dominant tenant by
    convention).
    """
    if not scenario.schedule.link_faults:
        return []
    network = parse_mix(scenario.mix)[0].network
    from repro.nn.zoo import build

    net = build(network)
    healthy = plan_pipeline(net, config, scenario.chips, link=scenario.link)
    windows = []
    for fault in scenario.schedule.link_faults:
        degraded_link = scenario.link.degraded(fault.factor)
        bottleneck = max(
            s.compute_s + degraded_link.transfer_seconds(s.send_bytes)
            for s in healthy.stages
        )
        mult = max(1.0, bottleneck / healthy.bottleneck_s)
        windows.append((fault.time_s, fault.end_s, mult))
    return windows


# -- the runner -------------------------------------------------------------


def run_scenario(
    scenario: ChaosScenario,
    config: AcceleratorConfig = CONFIG_16_16,
    coster: Optional[BatchCoster] = None,
) -> Dict[str, object]:
    """Execute one chaos scenario and reduce it to a deterministic rollup.

    The healthy and faulted runs see the *identical* seeded request list,
    so every delta in the rollup is attributable to the fault schedule.
    Raises if any offered request fails to terminate (the zero-silent-drop
    invariant).
    """
    schedule = scenario.schedule
    tenants = parse_mix(scenario.mix, slo_ms=scenario.slo_ms)
    requests = poisson_arrivals(
        scenario.rate_rps, scenario.duration_s, tenants, seed=scenario.seed
    )
    batch_policy = BatchPolicy(max_batch=scenario.max_batch)
    queue_policy = QueuePolicy()

    def make_engine(
        faults, service_windows, engine_coster, sdc=(), verification=None
    ):
        return FailoverEngine(
            config,
            batch_policy=batch_policy,
            queue_policy=queue_policy,
            replicas=scenario.replicas,
            routing=scenario.routing,
            faults=faults,
            failover_policy=scenario.failover_policy,
            service_windows=service_windows,
            coster=engine_coster,
            sdc_faults=sdc,
            verification=verification,
        )

    healthy_coster = coster or BatchCoster(config)
    healthy = make_engine((), (), healthy_coster).run(
        requests, scenario.duration_s
    )

    degrade_section = None
    faulted_coster = healthy_coster
    if schedule.pe_mask is not None and not schedule.pe_mask.is_noop:
        from repro.nn.zoo import build

        degrade_section = {}
        for network in sorted({t.network for t in tenants}):
            report = replan_degraded(
                build(network), config, schedule.pe_mask
            )
            degrade_section[network] = report.to_dict()
        # the faulted tier actually *runs* at the degraded geometry
        faulted_coster = BatchCoster(report.degraded_cfg)

    windows = _link_windows(scenario, config)
    faulted = make_engine(
        schedule.replica_faults,
        windows,
        faulted_coster,
        sdc=schedule.sdc_faults,
        verification=scenario.verification,
    ).run(requests, scenario.duration_s)

    accounting_exact = True
    for label, report in (("healthy", healthy), ("faulted", faulted)):
        s = report.summary
        terminated = s["completed"] + s["shed"] + s["failed"]
        if terminated != s["offered"]:
            accounting_exact = False
            if "zero-silent-drops" not in scenario.invariants:
                # not declared: enforce the hard way rather than let a
                # broken engine masquerade as a lossy-but-accounted one
                raise RuntimeError(
                    f"{scenario.name}/{label}: {s['offered']} requests "
                    f"offered but only {terminated} terminated — a request "
                    "was silently dropped"
                )

    repair_section = None
    if scenario.lost_chips:
        from repro.nn.zoo import build

        network = tenants[0].network
        repair_section = repair_pipeline(
            build(network),
            config,
            scenario.chips,
            scenario.lost_chips,
            link=scenario.link,
        ).to_dict()

    h, f = healthy.summary, faulted.summary
    hl, fl = h["latency_ms"], f["latency_ms"]

    def ratio(a: float, b: float) -> float:
        return round(a / b, 6) if b else 1.0

    integrity_section = None
    invariant_results: Dict[str, bool] = {}
    if "zero-silent-drops" in scenario.invariants:
        invariant_results["zero-silent-drops"] = accounting_exact
    if scenario.verification is not None or schedule.sdc_faults:
        integrity = dict(f["integrity"])
        verified_ratio = None
        if scenario.verification is not None and scenario.verification.enabled:
            # the check's cost in isolation: the same healthy workload with
            # only the verification overhead switched on
            vh = make_engine(
                (), (), healthy_coster, verification=scenario.verification
            ).run(requests, scenario.duration_s)
            vhl = vh.summary["latency_ms"]
            verified_ratio = {
                "p50": ratio(vhl["p50"], hl["p50"]),
                "p95": ratio(vhl["p95"], hl["p95"]),
                "p99": ratio(vhl["p99"], hl["p99"]),
            }
        integrity["verified_latency_ratio"] = verified_ratio
        integrity_section = integrity
        targets = sorted({sdc.replica for sdc in schedule.sdc_faults})
        drained = set(integrity["drained_replicas"])
        for inv in scenario.invariants:
            if inv == "zero-escaped":
                invariant_results[inv] = integrity["escaped_batches"] == 0
            elif inv == "sdc-drained":
                invariant_results[inv] = all(r in drained for r in targets)

    rollup: Dict[str, object] = {
        "scenario": scenario.meta(),
        "schedule": schedule.to_dict(),
        "failover_policy": scenario.failover_policy.to_dict(),
        "config": config.name,
        "healthy": _run_digest(h),
        "faulted": _run_digest(f),
        "availability": ratio(f["completed"], f["offered"]),
        "goodput_under_fault": f["goodput_rps"],
        "goodput_ratio": ratio(f["goodput_rps"], h["goodput_rps"]),
        "latency_ratio": {
            "p50": ratio(fl["p50"], hl["p50"]),
            "p95": ratio(fl["p95"], hl["p95"]),
            "p99": ratio(fl["p99"], hl["p99"]),
        },
        "recovery": _recovery(
            scenario, schedule, h, faulted.metrics.completed, f["makespan_s"]
        ),
        "failover": {
            "retries": faulted.summary["failover"]["retries"],
            "hedges": faulted.summary["failover"]["hedges"],
            "hedge_wasted_ms": faulted.summary["failover"]["hedge_wasted_ms"],
            "health_timeline": faulted.summary["failover"]["health_timeline"],
        },
        "degrade": degrade_section,
        "repair": repair_section,
        "integrity": integrity_section,
        "invariants_declared": list(scenario.invariants),
        "invariants": invariant_results,
    }
    return rollup


# -- the named scenario registry -------------------------------------------


def _single_crash(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="single-crash",
        description="one of three replicas fail-stops at steady state",
        schedule=FaultSchedule.seeded(seed, n_replicas=3, duration_s=4.0, crashes=1),
        replicas=3,
        seed=seed,
        invariants=("zero-silent-drops",),
    )


def _fail_slow(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="fail-slow",
        description="gray failure: two slowdown windows, hedging on",
        schedule=FaultSchedule.seeded(
            seed, n_replicas=3, duration_s=4.0, crashes=0, slowdowns=2
        ),
        replicas=3,
        seed=seed,
        failover_policy=FailoverPolicy(hedge=True),
        invariants=("zero-silent-drops",),
    )


def _link_flap(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="link-flap",
        description="flapping inter-chip link under a 2-chip pipeline on a "
        "constrained fabric",
        schedule=FaultSchedule(
            link_faults=flapping_link(
                start_s=0.8, period_s=0.8, down_fraction=0.4, factor=8.0, flaps=3
            ),
            seed=seed,
        ),
        replicas=2,
        chips=2,
        link=LinkSpec(bandwidth_gbs=0.5, latency_s=5e-4),
        seed=seed,
        invariants=("zero-silent-drops",),
    )


def _cascade(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="cascade",
        description="three of four replicas crash in sequence",
        schedule=FaultSchedule.seeded(seed, n_replicas=4, duration_s=4.0, crashes=3),
        replicas=4,
        seed=seed,
        invariants=("zero-silent-drops",),
    )


def _pe_mask(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="pe-mask",
        description="13 PE columns fused off: Algorithm 2 flips conv1 to "
        "inter-kernel, tier serves at the degraded geometry",
        schedule=FaultSchedule(pe_mask=PEMask(masked_cols=13), seed=seed),
        replicas=2,
        seed=seed,
        invariants=("zero-silent-drops",),
    )


def _chip_loss(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="chip-loss",
        description="a 3-chip pipeline loses chip 1; DP rebalance over "
        "survivors plus a replica crash on the serving tier",
        schedule=FaultSchedule.seeded(seed, n_replicas=2, duration_s=4.0, crashes=1),
        replicas=2,
        chips=3,
        lost_chips=(1,),
        seed=seed,
        invariants=("zero-silent-drops",),
    )


def _sdc_storm(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="sdc-storm",
        description="replica 1 silently corrupts every batch for 1.2s; "
        "verified inference detects, recomputes, and drains it",
        schedule=FaultSchedule(
            sdc_faults=(
                SDCFault(
                    replica=1, time_s=0.8, duration_s=1.2, per_batch=1.0, seed=seed
                ),
            ),
            seed=seed,
        ),
        replicas=3,
        seed=seed,
        verification=VerificationPolicy(),
        invariants=("zero-silent-drops", "zero-escaped", "sdc-drained"),
    )


def _sdc_silent(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="sdc-silent",
        description="the same SDC window with verification off: every "
        "corrupted batch escapes to a tenant (the case for the guard)",
        schedule=FaultSchedule(
            sdc_faults=(
                SDCFault(
                    replica=1, time_s=0.8, duration_s=1.2, per_batch=1.0, seed=seed
                ),
            ),
            seed=seed,
        ),
        replicas=3,
        seed=seed,
        verification=VerificationPolicy(enabled=False),
        invariants=("zero-silent-drops",),
    )


_BUILDERS = {
    "single-crash": _single_crash,
    "fail-slow": _fail_slow,
    "link-flap": _link_flap,
    "cascade": _cascade,
    "pe-mask": _pe_mask,
    "chip-loss": _chip_loss,
    "sdc-storm": _sdc_storm,
    "sdc-silent": _sdc_silent,
}

SCENARIO_NAMES = tuple(sorted(_BUILDERS))


def build_scenario(name: str, seed: int = 1) -> ChaosScenario:
    """Instantiate a named scenario at a seed (the CLI's entry point)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}"
        ) from None
    return builder(seed)
