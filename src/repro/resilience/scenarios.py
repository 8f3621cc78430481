"""Chaos scenarios: one fault schedule + one workload → one rollup dict.

A :class:`ChaosScenario` pins what varies between chaos runs — replica
count, the :class:`~repro.resilience.faults.FaultSchedule`, failover
policy, pipeline context — over one fixed workload (:data:`MIX` at
:data:`RATE_RPS` for :data:`DURATION_S`), and :func:`run_scenario` serves
the *same seeded requests* through the arms that make the numbers
meaningful, each a failover run of :class:`~repro.serve.engine.ServingEngine`:
``healthy`` (no faults), ``faulted`` (the schedule) and, when the scenario
verifies batches, ``verified`` (the healthy tier paying only the check's
cost).  The rollup reports:

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
  replicas were drained, and the verified-vs-unverified latency ratio.

A scenario may also declare **invariants** — named predicates over the
rollup (:data:`INVARIANTS`).  They are evaluated into
``rollup["invariants"]`` and the ``repro chaos`` CLI exits non-zero when
any is false, which is what makes the CI smoke job an actual regression
gate.

This module also holds the runner both chaos catalogues share (the
self-healing one is :mod:`repro.control.chaos_scenarios`): the registry
(:func:`registry`), the record check (:func:`check_scenario`), the arm
loop (:func:`run_arms`), which *raises* if an arm loses a request, the
per-arm :func:`digest`, the MTTR scan (:func:`scan_recovery`) and the
invariant evaluation (:func:`evaluate`).  Every number is a
deterministic function of (scenario, seed): rendering the rollup through
:func:`repro.serve.metrics.to_json` is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.cluster.link import LinkSpec
from repro.cluster.pipeline import plan_pipeline
from repro.errors import ConfigError, check_choice, check_counts
from repro.resilience.degrade import replan_degraded
from repro.resilience.faults import FaultSchedule, PEMask, flapping_link
from repro.resilience.repair import repair_pipeline
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import ServingEngine
from repro.serve.failover import FailoverPolicy
from repro.serve.metrics import MetricsCollector
from repro.serve.queue import QueuePolicy
from repro.serve.verified import SDCFault, VerificationPolicy
from repro.serve.workload import Arrivals, parse_mix, poisson_arrivals

__all__ = [
    "ChaosScenario",
    "run_scenario",
    "build_scenario",
    "INVARIANT_NAMES",
    "SCENARIO_NAMES",
]

#: the workload every catalogue scenario serves
MIX = "alexnet"
RATE_RPS = 120.0
DURATION_S = 4.0
ROUTING = "least-loaded"
SLO_MS = 250.0
MAX_BATCH = 8
#: goodput-series window for the MTTR scan
WINDOW_S = 0.25

S = TypeVar("S")
#: an arm: serves the requests, returns (summary, completion log)
Arm = Callable[[Arrivals], Tuple[Dict[str, object], MetricsCollector]]
#: an invariant: (scenario, rollup, per-arm summaries) -> holds?
Predicate = Callable[[object, Dict[str, object], Dict[str, Dict[str, object]]], object]


# -- the shared runner ------------------------------------------------------


def registry(
    builders: Mapping[str, Callable[[int], S]], label: str
) -> Tuple[Tuple[str, ...], Callable[..., S]]:
    """A catalogue's sorted names and its ``build(name, seed=1)``."""
    names = tuple(sorted(builders))

    def build(name: str, seed: int = 1) -> S:
        """Instantiate a named scenario at a seed (the CLI's entry point)."""
        try:
            builder = builders[name]
        except KeyError:
            raise ConfigError(
                f"unknown {label} {name!r}; choose from {names}"
            ) from None
        return builder(seed)

    return names, build


def check_scenario(scenario, table: Mapping[str, Predicate]) -> None:
    """The record check both catalogues share: an int replica count and
    seed, and declared invariants that ``table`` can evaluate."""
    check_counts(scenario, "replicas", minimum=1)
    check_counts(scenario, "seed", minimum=None)
    for inv in scenario.invariants:
        check_choice(inv, "invariant", tuple(table))


def _terminated(summary: Dict[str, object]) -> int:
    return int(summary["completed"]) + int(summary["shed"]) + int(summary["failed"])


def run_arms(
    name: str, requests: Arrivals, arms: Mapping[str, Arm], keep: str
) -> Tuple[Dict[str, Dict[str, object]], MetricsCollector]:
    """Serve the same ``requests`` stream through every arm, in order.

    Returns each arm's summary and the completion log of arm ``keep``
    (the MTTR scan's input).  Other arms' logs are dropped as each arm
    ends, so at most one arm's log is alive while the next one runs.
    Raises :class:`RuntimeError` if an arm loses a request: offered must
    equal completed + shed + failed.
    """
    summaries: Dict[str, Dict[str, object]] = {}
    kept = MetricsCollector()
    for arm, serve in arms.items():
        summary, log = serve(requests)
        terminated = _terminated(summary)
        if terminated != summary["offered"]:
            raise RuntimeError(
                f"{name}/{arm}: {summary['offered']} requests offered but only "
                f"{terminated} terminated — a request was silently dropped"
            )
        summaries[arm] = summary
        if arm == keep:
            kept = log
        del log
    return summaries, kept


def digest(summary: Dict[str, object], *extra: str) -> Dict[str, object]:
    """One arm's rollup entry: the keys both catalogues report, plus the
    ``extra`` summary keys a catalogue adds."""
    keys = ("offered", "completed", "shed", "failed", "goodput_rps")
    keys += ("deadline_hit_rate", "utilization", "makespan_s") + extra
    out = {key: summary[key] for key in keys}
    out["latency_ms"] = {p: summary["latency_ms"][p] for p in ("p50", "p95", "p99")}
    return out


def goodput_series(
    log: MetricsCollector, start_s: float, end_s: float, window_s: float
) -> List[Tuple[float, float]]:
    """(window start, deadline-met completions / window) from ``start_s``."""
    if end_s <= start_s:
        return []
    n_windows = int(math.ceil((end_s - start_s) / window_s))
    counts = [0] * n_windows
    cols = log.columns()
    for finish_s in cols.finish[cols.finish <= cols.deadline].tolist():
        k = int((finish_s - start_s) // window_s)
        if 0 <= k < n_windows:
            counts[k] += 1
    return [
        (start_s + k * window_s, counts[k] / window_s)
        for k in range(n_windows)
    ]


def mttr_ms(
    series: Sequence[Tuple[float, float]], target: float, window_s: float
) -> Optional[float]:
    """ms until the end of the first window whose goodput clears
    ``target``, or ``None`` if none does."""
    for k, (_, goodput) in enumerate(series):
        if goodput >= target:
            return round((k + 1) * window_s * 1e3, 6)
    return None


def scan_recovery(
    log: MetricsCollector,
    start_s: Optional[float],
    end_s: float,
    target: float,
    window_s: float,
) -> Tuple[Dict[str, object], List[Tuple[float, float]]]:
    """The MTTR scan: when does windowed goodput from ``start_s`` (the
    first fault; ``None`` = no fault, nothing to recover from) clear
    ``target``?  Returns the rollup fields and the goodput series."""
    series = (
        goodput_series(log, start_s, end_s, window_s)
        if start_s is not None
        else []
    )
    mttr = mttr_ms(series, target, window_s)
    fields = {
        "target_goodput_rps": round(target, 6),
        "mttr_ms": mttr,
        "recovered": mttr is not None,
    }
    return fields, series


def conserved(scenario, rollup, summaries) -> bool:
    """``zero-silent-drops``: every arm accounts for every request."""
    return all(_terminated(s) == s["offered"] for s in summaries.values())


def evaluate(
    table: Mapping[str, Predicate],
    scenario,
    rollup: Dict[str, object],
    summaries: Dict[str, Dict[str, object]],
) -> Dict[str, bool]:
    """Each declared invariant, in declaration order, read from ``table``."""
    return {
        inv: bool(table[inv](scenario, rollup, summaries))
        for inv in scenario.invariants
    }


def violations(
    rollups: Mapping[str, Dict[str, object]], names: Sequence[str] = ()
) -> List[Tuple[str, str]]:
    """(scenario, invariant) for each declared invariant that does not
    hold, over ``names`` (default: every rollup)."""
    return [
        (name, inv)
        for name in names or list(rollups)
        for inv, ok in rollups[name]["invariants"].items()
        if not ok
    ]


def mttr_cell(rollup: Dict[str, object]) -> str:
    """A rollup's MTTR in whole ms, or ``-`` if it never recovered."""
    mttr = rollup["recovery"]["mttr_ms"]
    return f"{mttr:.0f}" if mttr is not None else "-"


@dataclass(frozen=True)
class CatalogueView:
    """How one catalogue prints: ``repro chaos`` and the catalogue's bench
    script render the same view."""

    title: str
    #: width of the name column in ``repro chaos --list``
    width: int
    columns: Tuple[str, ...]
    #: one table row per scenario, from its name and rollup
    row: Callable[[str, Dict[str, object]], List[str]]
    #: the lines printed under the table for one rollup
    notes: Callable[[Dict[str, object]], List[str]]

    def render(
        self,
        seed: int,
        config: str,
        rollups: Mapping[str, Dict[str, object]],
        names: Sequence[str] = (),
    ) -> str:
        """The title line, one row per scenario in ``names`` (default:
        every rollup), their notes and each violated invariant."""
        from repro.analysis.report import format_table

        names = list(names) or list(rollups)
        rows = [self.row(name, rollups[name]) for name in names]
        lines = [f"{self.title} seed {seed} on {config}", ""]
        lines.append(format_table(self.columns, rows))
        for name in names:
            lines.extend(f"\n{name}: {note}" for note in self.notes(rollups[name]))
        for name, inv in violations(rollups, names):
            lines.append(f"\nINVARIANT VIOLATED: {name}: {inv}")
        return "\n".join(lines)


# -- the frozen-tier catalogue ----------------------------------------------


def _integrity(rollup: Dict[str, object]) -> Dict[str, object]:
    # no integrity section: nothing was corrupted, checked or drained
    return rollup["integrity"] or {"escaped_batches": 0, "drained_replicas": []}


#: invariants a scenario may declare; evaluated into ``rollup["invariants"]``
INVARIANTS: Dict[str, Predicate] = {
    "zero-silent-drops": conserved,
    # no corrupted batch escaped the ABFT check
    "zero-escaped": lambda s, r, _: _integrity(r)["escaped_batches"] == 0,
    # every SDC-targeted replica ended up drained
    "sdc-drained": lambda s, r, _: {f.replica for f in s.schedule.sdc_faults}
    <= set(_integrity(r)["drained_replicas"]),
}
INVARIANT_NAMES = tuple(INVARIANTS)


@dataclass(frozen=True)
class ChaosScenario:
    """One named, fully-pinned chaos experiment."""

    name: str
    description: str
    schedule: FaultSchedule
    replicas: int = 3
    seed: int = 1
    failover_policy: FailoverPolicy = field(default_factory=FailoverPolicy)
    #: pipeline context for link faults and chip-loss repair (1 = none)
    chips: int = 1
    lost_chips: Tuple[int, ...] = ()
    link: LinkSpec = field(default_factory=LinkSpec)
    #: per-batch ABFT verification on the faulted tier (None = unguarded)
    verification: Optional[VerificationPolicy] = None
    #: named rollup predicates the CLI turns into exit codes
    invariants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_scenario(self, INVARIANTS)
        check_counts(self, "chips", minimum=1)
        if self.schedule.link_faults and self.chips < 2:
            raise ConfigError(
                f"scenario {self.name!r} schedules link faults but has no "
                "inter-chip link (chips < 2)"
            )
        if self.schedule.mask_faults:
            raise ConfigError(
                f"scenario {self.name!r} schedules mask_faults, which only "
                "the control tier arms (repro.control.chaos_scenarios)"
            )
        self.schedule.validate_for(self.replicas)

    def meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "mix": MIX,
            "rate_rps": round(RATE_RPS, 6),
            "duration_s": round(DURATION_S, 6),
            "replicas": self.replicas,
            "chips": self.chips,
            "lost_chips": list(self.lost_chips),
            "seed": self.seed,
            "routing": ROUTING,
            "slo_ms": round(SLO_MS, 6),
            "max_batch": MAX_BATCH,
            "window_ms": round(WINDOW_S * 1e3, 6),
            "verification": self.verification.describe()
            if self.verification is not None
            else None,
            "invariants": list(self.invariants),
        }


def _recovery(
    scenario: ChaosScenario,
    healthy_goodput_rps: float,
    faulted_log: MetricsCollector,
    faulted_makespan_s: float,
) -> Dict[str, object]:
    """The MTTR scan from the first crash to the survivor-fraction bar."""
    schedule = scenario.schedule
    first_crash = schedule.first_crash_s()
    crashed = len({f.replica for f in schedule.crashes})
    survivor_frac = (scenario.replicas - crashed) / scenario.replicas
    target = survivor_frac * healthy_goodput_rps
    fields, series = scan_recovery(
        faulted_log, first_crash, faulted_makespan_s, target, WINDOW_S
    )
    if crashed >= scenario.replicas:  # nothing left to recover onto
        fields.update(mttr_ms=None, recovered=False)
    return {
        "first_crash_ms": round(first_crash * 1e3, 6)
        if first_crash is not None
        else None,
        "crashed_replicas": crashed,
        "survivor_fraction": round(survivor_frac, 6),
        **fields,
        "goodput_series": [
            {"t_ms": round(t * 1e3, 6), "goodput_rps": round(g, 6)}
            for t, g in series
        ],
    }


def _link_windows(
    scenario: ChaosScenario, network: str, config: AcceleratorConfig
) -> List[Tuple[float, float, float]]:
    """Link faults → global service-time windows for the serving tier.

    Each replica is a ``chips``-stage pipeline internally; a degraded
    interconnect stretches the pipeline bottleneck.  The stage cuts stay
    *frozen at the healthy partition* — a flap is transient, nobody
    repartitions mid-window — so the multiplier is the healthy cut's
    bottleneck repriced at the degraded link, over the healthy bottleneck
    (computed on ``network``, the mix's dominant first tenant).
    """
    if not scenario.schedule.link_faults:
        return []
    from repro.nn.zoo import build

    healthy = plan_pipeline(build(network), config, scenario.chips, link=scenario.link)
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


def _ratio(a: float, b: float) -> float:
    return round(a / b, 6) if b else 1.0


def _latency_ratio(a: Dict[str, object], b: Dict[str, object]) -> Dict[str, float]:
    """Arm ``a``'s p50/p95/p99 latency over arm ``b``'s."""
    return {
        p: _ratio(a["latency_ms"][p], b["latency_ms"][p])
        for p in ("p50", "p95", "p99")
    }


def run_scenario(
    scenario: ChaosScenario,
    config: AcceleratorConfig = CONFIG_16_16,
    coster: Optional[BatchCoster] = None,
) -> Dict[str, object]:
    """Execute one chaos scenario and reduce it to a deterministic rollup.

    Every arm sees the *identical* seeded request stream, so every delta in
    the rollup is attributable to the fault schedule.  Raises
    :class:`RuntimeError` if any arm loses a request.
    """
    from repro.nn.zoo import build

    schedule = scenario.schedule
    tenants = parse_mix(MIX, slo_ms=SLO_MS)
    requests = poisson_arrivals(RATE_RPS, DURATION_S, tenants, seed=scenario.seed)
    healthy_coster = coster or BatchCoster(config)

    degrade_section = None
    faulted_coster = healthy_coster
    if schedule.pe_mask is not None and not schedule.pe_mask.is_noop:
        degrade_section = {}
        for network in sorted({t.network for t in tenants}):
            report = replan_degraded(build(network), config, schedule.pe_mask)
            degrade_section[network] = report.to_dict()
        # the faulted tier actually *runs* at the degraded geometry
        faulted_coster = BatchCoster(report.degraded_cfg)

    def arm(engine_coster, faults=(), windows=(), sdc=(), verification=None) -> Arm:
        def serve(reqs):
            report = ServingEngine(
                config,
                batch_policy=BatchPolicy(max_batch=MAX_BATCH),
                queue_policy=QueuePolicy(),
                replicas=scenario.replicas,
                routing=ROUTING,
                faults=faults,
                failover_policy=scenario.failover_policy,
                service_windows=windows,
                coster=engine_coster,
                sdc_faults=sdc,
                verification=verification,
            ).run(reqs, DURATION_S)
            return report.summary, report.metrics

        return serve

    arms = {
        "healthy": arm(healthy_coster),
        "faulted": arm(
            faulted_coster,
            schedule.replica_faults,
            _link_windows(scenario, tenants[0].network, config),
            schedule.sdc_faults,
            scenario.verification,
        ),
    }
    verify = scenario.verification
    if verify is not None and verify.enabled:
        # the check's cost in isolation: the same healthy workload with
        # only the verification overhead switched on
        arms["verified"] = arm(healthy_coster, verification=verify)
    summaries, faulted_log = run_arms(scenario.name, requests, arms, "faulted")
    h, f = summaries["healthy"], summaries["faulted"]

    integrity_section = None
    if verify is not None or schedule.sdc_faults:
        integrity_section = dict(f["integrity"])
        verified = summaries.get("verified")
        integrity_section["verified_latency_ratio"] = (
            _latency_ratio(verified, h) if verified is not None else None
        )

    repair_section = None
    if scenario.lost_chips:
        repair_section = repair_pipeline(
            build(tenants[0].network),
            config,
            scenario.chips,
            scenario.lost_chips,
            link=scenario.link,
        ).to_dict()

    rollup: Dict[str, object] = {
        "scenario": scenario.meta(),
        "schedule": schedule.to_dict(),
        "failover_policy": scenario.failover_policy.to_dict(),
        "config": config.name,
        "healthy": digest(h, "failed_by_reason", "throughput_rps"),
        "faulted": digest(f, "failed_by_reason", "throughput_rps"),
        "availability": _ratio(f["completed"], f["offered"]),
        "goodput_under_fault": f["goodput_rps"],
        "goodput_ratio": _ratio(f["goodput_rps"], h["goodput_rps"]),
        "latency_ratio": _latency_ratio(f, h),
        "recovery": _recovery(
            scenario, float(h["goodput_rps"]), faulted_log, f["makespan_s"]
        ),
        "failover": {
            key: f["failover"][key]
            for key in ("retries", "hedges", "hedge_wasted_ms", "health_timeline")
        },
        "degrade": degrade_section,
        "repair": repair_section,
        "integrity": integrity_section,
        "invariants_declared": list(scenario.invariants),
    }
    rollup["invariants"] = evaluate(INVARIANTS, scenario, rollup, summaries)
    return rollup


def _row(name: str, r: Dict[str, object]) -> List[str]:
    return [
        name,
        f"{r['availability']:.4f}",
        f"{r['goodput_ratio']:.3f}",
        f"{r['latency_ratio']['p95']:.2f}x",
        f"{r['latency_ratio']['p99']:.2f}x",
        mttr_cell(r),
        str(r["failover"]["retries"]),
        str(r["faulted"]["failed"]),
    ]


def _notes(r: Dict[str, object]) -> List[str]:
    notes = []
    for network, d in sorted((r["degrade"] or {}).items()):
        flips = ", ".join(
            f"{f['layer']} {f['healthy']}->{f['degraded']}"
            for f in d["scheme_flips"]
        ) or "none"
        notes.append(
            f"{network} degraded "
            f"{d['healthy_pe'][0]}x{d['healthy_pe'][1]} -> "
            f"{d['degraded_pe'][0]}x{d['degraded_pe'][1]}, "
            f"slowdown {d['slowdown']:.2f}x, flips: {flips}"
        )
    repair = r["repair"]
    if repair:
        notes.append(
            f"lost chip(s) {repair['lost_chips']} of "
            f"{repair['healthy_chips']}, rebalanced to "
            f"{len(repair['surviving_chips'])} chips at "
            f"{repair['throughput_ratio']:.1%} throughput, "
            f"{len(repair['moved_layers'])} layers moved "
            f"({repair['rebalance_ms']:.2f} ms of weight traffic)"
        )
    integrity = r["integrity"]
    if integrity:
        drained = integrity["drained_replicas"]
        notes.append(
            f"{integrity['corrupted_batches']} corrupted "
            f"batches, {integrity['detected']} detected / "
            f"{integrity['corrected']} corrected / "
            f"{integrity['escaped_batches']} escaped, drained "
            f"{drained if drained else 'none'}"
        )
    return notes


#: the ``repro chaos`` table
VIEW = CatalogueView(
    "chaos",
    14,
    ("scenario", "avail", "goodput", "p95", "p99", "mttr ms", "retries", "failed"),
    _row,
    _notes,
)


# -- the named scenario registry -------------------------------------------


def _seeded(seed: int, replicas: int, **counts: int) -> FaultSchedule:
    return FaultSchedule.seeded(
        seed, n_replicas=replicas, duration_s=DURATION_S, **counts
    )


def _sdc_window(seed: int) -> FaultSchedule:
    """Replica 1 corrupts every batch from 0.8 s for 1.2 s."""
    sdc = SDCFault(replica=1, time_s=0.8, duration_s=1.2, per_batch=1.0, seed=seed)
    return FaultSchedule(sdc_faults=(sdc,), seed=seed)


def _single_crash(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="single-crash",
        description="one of three replicas fail-stops at steady state",
        schedule=_seeded(seed, 3, crashes=1),
        replicas=3,
        seed=seed,
        invariants=("zero-silent-drops",),
    )


def _fail_slow(seed: int) -> ChaosScenario:
    return ChaosScenario(
        name="fail-slow",
        description="gray failure: two slowdown windows, hedging on",
        schedule=_seeded(seed, 3, crashes=0, slowdowns=2),
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
        schedule=_seeded(seed, 4, crashes=3),
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
        schedule=_seeded(seed, 2, crashes=1),
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
        schedule=_sdc_window(seed),
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
        schedule=_sdc_window(seed),
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

SCENARIO_NAMES, build_scenario = registry(_BUILDERS, "scenario")
