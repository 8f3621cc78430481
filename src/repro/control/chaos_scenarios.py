"""Chaos under autoscaling: four arms per scenario, invariants enforced.

Where :mod:`repro.resilience.scenarios` measures a *fixed* serving tier
under faults, this module puts the fault schedule under a live control
loop — and puts faults inside the control loop itself.  Every scenario
runs the same seeded requests through four arms:

* ``frozen-healthy`` — the initial fleet, no faults, no controller: the
  ceiling;
* ``frozen-faulted`` — the initial fleet under the data-plane schedule,
  no controller: the survivor-capacity floor self-healing must beat;
* ``nonhealing`` — the PR-7 loop (:class:`HealingPolicy.disabled`) under
  the *same* data-plane and control-plane faults: it scales on load
  signals but trusts tampered telemetry, never repairs, and stays dead
  after a loop crash;
* ``healing`` — the full :class:`~repro.control.healing.SelfHealingControlLoop`.

The rollup carries per-arm digests, the healing loop's decisions log
summary, an MTTR scan (windowed goodput vs a recovery target derived from
the frozen-healthy arm), and a dict of named **invariants**, each a
predicate in :data:`CONTROL_INVARIANTS` — the CLI (``repro chaos
--control``) exits non-zero when any is false.  The arm loop, digest,
MTTR scan and registry are the ones :mod:`repro.resilience.scenarios`
runs its frozen-tier catalogue on.

Everything is a deterministic function of (scenario, seed); the rollup
renders byte-stable through :func:`repro.serve.metrics.to_json`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.errors import ConfigError, check_real
from repro.resilience.faults import (
    FaultSchedule,
    MaskFault,
    PEMask,
    ReplicaFault,
)
from repro.resilience.scenarios import (
    CatalogueView,
    Predicate,
    check_scenario,
    conserved,
    digest,
    evaluate,
    mttr_cell,
    registry,
    run_arms,
    scan_recovery,
)
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import AdaptiveServingEngine
from repro.serve.workload import (
    Arrivals,
    check_flash_crowd,
    diurnal_arrivals,
    parse_mix,
    poisson_arrivals,
)
from repro.control.chaos import (
    ActuationFault,
    ControlFaultSchedule,
    LoopCrash,
    SafeModePolicy,
    TelemetryFault,
    apply_fault_schedule,
    check_armable,
)
from repro.control.healing import HealingPolicy, SelfHealingControlLoop
from repro.control.policy import AutoscalePolicy
from repro.tenancy.fleet import FleetSpec, parse_fleet
from repro.tenancy.placement import demand_from_tenants

__all__ = [
    "ControlChaosScenario",
    "run_control_scenario",
    "build_control_scenario",
    "CONTROL_INVARIANT_NAMES",
    "CONTROL_SCENARIO_NAMES",
]

#: the workload and control settings every catalogue scenario shares
MIX = "alexnet"
SLO_MS = 120.0
MAX_BATCH = 8
HEALING = HealingPolicy()
#: goodput-series window for the MTTR scan
WINDOW_S = 2.0
#: floor for ``attainment-floor`` (x frozen-faulted attainment)
FLOOR_FRAC = 1.0


# -- invariants --------------------------------------------------------------


def _attainment(rollup: Dict[str, object], arm: str) -> float:
    return float(rollup["arms"][arm]["deadline_hit_rate"])


def _actions(rollup: Dict[str, object], kind: str) -> int:
    return rollup["arms"]["healing"]["actions_by_kind"].get(kind, 0)


def _detail(rollup: Dict[str, object]) -> Dict[str, object]:
    return rollup["healing_detail"]


def _covered(injected: int, handled: int) -> bool:
    """At least one fault was injected and each one was handled."""
    return injected > 0 and handled >= injected


def _bounded_mttr(scenario, rollup, _) -> bool:
    recovery = rollup["recovery"]
    return bool(recovery["recovered"]) and (
        float(recovery["mttr_ms"]) <= scenario.mttr_deadline_s * 1e3
    )


def _actuation_caught(scenario, rollup, summaries) -> bool:
    failed = rollup["arms"]["healing"]["verdicts_by_status"].get("failed", 0)
    retries = sum(
        1
        for rec in summaries["healing"]["control"]["epochs"]
        for act in rec.get("actions", ())
        if str(act.get("reason", "")).startswith("retry after failed")
    )
    return bool(_detail(rollup)["actuation_injected"]) and (
        failed > 0 or retries > 0
    )


def _resumed(scenario, rollup, _) -> bool:
    restarts = _detail(rollup)["restarts"]
    return _covered(len(scenario.control_faults.crashes), len(restarts)) and all(
        r["journal_epochs"] > 0 for r in restarts
    )


#: invariants a scenario may declare; evaluated into ``rollup["invariants"]``
CONTROL_INVARIANTS: Dict[str, Predicate] = {
    # every arm satisfies offered == completed + shed + failed
    "zero-silent-drops": conserved,
    # healing goodput recovers within the scenario's mttr_deadline_s
    "bounded-mttr": _bounded_mttr,
    # healing attainment >= FLOOR_FRAC x frozen-faulted
    "attainment-floor": lambda s, r, _: _attainment(r, "healing")
    >= FLOOR_FRAC * _attainment(r, "frozen-faulted"),
    # healing attainment >= the non-healing loop's (a tie did no harm)
    "beats-nonhealing": lambda s, r, _: _attainment(r, "healing")
    >= _attainment(r, "nonhealing"),
    # every data-plane crash drew a replace action
    "crash-replaced": lambda s, r, _: _covered(
        len(s.data_faults.crashes), _actions(r, "replace")
    ),
    # every PE-mask fault drew a replan action
    "replan-applied": lambda s, r, _: _covered(
        len(s.data_faults.mask_faults), _actions(r, "replan")
    ),
    # every exercised telemetry fault was flagged
    "telemetry-detected": lambda s, r, _: _covered(
        len(_detail(r)["telemetry_injected"]), int(_detail(r)["telemetry_flags"])
    ),
    # exercised actuation faults surfaced as failed verdicts or retries
    "actuation-caught": _actuation_caught,
    # every loop crash produced a journal restart
    "resumed-from-journal": _resumed,
    # the control-fault storm tripped safe mode
    "safe-mode-entered": lambda s, r, _: bool(_detail(r)["safe_mode_intervals"]),
    # safe-mode healing serves no worse than the frozen fleet (must not shed)
    "safe-mode-floor": lambda s, r, _: int(r["arms"]["healing"]["completed"])
    >= int(r["arms"]["frozen-faulted"]["completed"]),
    # replacements were placed on a surviving chip via place_tenants
    "placement-used": lambda s, r, _: bool(_detail(r)["placements"])
    and all(p.get("chip") for p in _detail(r)["placements"]),
}
CONTROL_INVARIANT_NAMES = tuple(CONTROL_INVARIANTS)


@dataclass(frozen=True)
class ControlChaosScenario:
    """One named chaos-under-autoscaling experiment, fully pinned."""

    name: str
    description: str
    data_faults: FaultSchedule = field(default_factory=FaultSchedule)
    control_faults: ControlFaultSchedule = field(
        default_factory=ControlFaultSchedule
    )
    rate_rps: float = 420.0
    duration_s: float = 40.0
    replicas: int = 3
    seed: int = 1
    autoscale: AutoscalePolicy = field(
        default_factory=lambda: AutoscalePolicy(
            epoch_s=2.0, min_replicas=2, max_replicas=8
        )
    )
    safe_mode: SafeModePolicy = field(default_factory=SafeModePolicy)
    #: flash crowd (start_s, duration_s, factor); 1.0 factor = steady
    flash: Optional[Tuple[float, float, float]] = None
    #: fleet context for placed replacements ("" = none)
    fleet_spec: str = ""
    #: recovery target as a fraction of frozen-healthy goodput
    recovery_frac: float = 0.85
    #: deadline for ``bounded-mttr``, seconds after the first data fault
    mttr_deadline_s: float = 10.0
    invariants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_scenario(self, CONTROL_INVARIANTS)
        check_real(self.rate_rps, "rate_rps", gt=0)
        check_real(self.duration_s, "duration_s", gt=0)
        check_real(self.mttr_deadline_s, "mttr_deadline_s", gt=0)
        if self.flash is not None:
            check_flash_crowd(self.flash)
        check_real(self.recovery_frac, "recovery_frac", gt=0, le=1)
        check_armable(self.data_faults)
        self.data_faults.validate_for(self.replicas)

    def meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "mix": MIX,
            "rate_rps": round(self.rate_rps, 6),
            "duration_s": round(self.duration_s, 6),
            "replicas": self.replicas,
            "slo_ms": round(SLO_MS, 6),
            "max_batch": MAX_BATCH,
            "flash": list(self.flash) if self.flash else None,
            "fleet": self.fleet_spec or None,
            "autoscale": self.autoscale.to_dict(),
            "healing": HEALING.to_dict(),
            "safe_mode": self.safe_mode.to_dict(),
            "data_faults": self.data_faults.to_dict(),
            "control_faults": self.control_faults.to_dict(),
            "invariants": list(self.invariants),
        }


# -- the runner --------------------------------------------------------------


def _requests(scenario: ControlChaosScenario, tenants) -> Arrivals:
    if scenario.flash is None:
        return poisson_arrivals(
            scenario.rate_rps,
            scenario.duration_s,
            tenants,
            seed=scenario.seed,
        )
    return diurnal_arrivals(
        scenario.rate_rps,
        scenario.rate_rps,
        days=1.0,
        tenants=tenants,
        seed=scenario.seed,
        day_s=scenario.duration_s,
        flash_crowds=[scenario.flash],
    )


def _first_fault_s(schedule: FaultSchedule) -> Optional[float]:
    times = [f.time_s for f in schedule.replica_faults]
    times.extend(f.time_s for f in schedule.mask_faults)
    times.extend(f.time_s for f in schedule.sdc_faults)
    return min(times) if times else None


def run_control_scenario(
    scenario: ControlChaosScenario,
    config: AcceleratorConfig = CONFIG_16_16,
) -> Dict[str, object]:
    """Run all four arms on the same seeded requests; returns the rollup.

    Raises :class:`RuntimeError` if any arm loses a request.
    """
    tenants = parse_mix(MIX, slo_ms=SLO_MS)
    coster = BatchCoster(config)
    batch_policy = BatchPolicy(max_batch=MAX_BATCH)
    data_faults = None if scenario.data_faults.is_empty else scenario.data_faults
    fleet: Optional[FleetSpec] = (
        parse_fleet(scenario.fleet_spec) if scenario.fleet_spec else None
    )
    chip_map: Optional[Dict[int, str]] = None
    if fleet is not None:
        slots = fleet.slots()
        if len(slots) < scenario.replicas:
            raise ConfigError(
                f"fleet {scenario.fleet_spec!r} has {len(slots)} slots but "
                f"the scenario starts {scenario.replicas} replicas"
            )
        chip_map = {
            rid: slots[rid].chip_id for rid in range(scenario.replicas)
        }
    demands = (
        demand_from_tenants(tenants, scenario.rate_rps)
        if fleet is not None
        else None
    )

    def frozen(faults: Optional[FaultSchedule]):
        def serve(requests):
            engine = AdaptiveServingEngine(
                config,
                batch_policy=batch_policy,
                replicas=scenario.replicas,
                coster=coster,
                chip_map=chip_map,
            )
            if faults is not None:
                apply_fault_schedule(engine, faults, config)
            report = engine.run(requests, scenario.duration_s)
            return dict(report.summary), report.metrics

        return serve

    def loop(healing: HealingPolicy, safe: SafeModePolicy):
        def serve(requests):
            report = SelfHealingControlLoop(
                config,
                tenants,
                autoscale=scenario.autoscale,
                healing=healing,
                safe_mode=safe,
                control_faults=scenario.control_faults,
                batch_policy=batch_policy,
                replicas=scenario.replicas,
                coster=coster,
                fleet=fleet,
                demands=demands,
                chip_map=chip_map,
            ).run(requests, scenario.duration_s, data_faults=data_faults)
            return report.summary, report.serving.metrics

        return serve

    summaries, healing_log = run_arms(
        scenario.name,
        _requests(scenario, tenants),
        {
            "frozen-healthy": frozen(None),
            "frozen-faulted": frozen(data_faults),
            "nonhealing": loop(
                HealingPolicy.disabled(), SafeModePolicy(enabled=False)
            ),
            "healing": loop(HEALING, scenario.safe_mode),
        },
        keep="healing",
    )
    arms = {name: digest(summary) for name, summary in summaries.items()}
    for name in ("nonhealing", "healing"):
        control = summaries[name]["control"]
        arms[name]["actions_by_kind"] = control["actions_by_kind"]
        arms[name]["verdicts_by_status"] = control["verdicts_by_status"]

    first = _first_fault_s(scenario.data_faults)
    target = scenario.recovery_frac * float(summaries["frozen-healthy"]["goodput_rps"])
    fields, _ = scan_recovery(
        healing_log,
        first,
        float(summaries["healing"]["makespan_s"]),
        target,
        WINDOW_S,
    )
    detail = summaries["healing"]["healing"]
    attainment = {name: arm["deadline_hit_rate"] for name, arm in arms.items()}
    rollup: Dict[str, object] = {
        "scenario": scenario.meta(),
        "seed": scenario.seed,
        "arms": arms,
        "attainment": {
            "healing": attainment["healing"],
            "nonhealing": attainment["nonhealing"],
            "frozen_faulted": attainment["frozen-faulted"],
            "frozen_healthy": attainment["frozen-healthy"],
            "delta_vs_frozen": round(
                float(attainment["healing"])
                - float(attainment["frozen-faulted"]),
                6,
            ),
            "delta_vs_nonhealing": round(
                float(attainment["healing"]) - float(attainment["nonhealing"]),
                6,
            ),
        },
        "recovery": {
            "first_fault_ms": round(first * 1e3, 6) if first is not None else None,
            **fields,
            "deadline_ms": round(scenario.mttr_deadline_s * 1e3, 6),
        },
        "healing_detail": {
            "telemetry_injected": detail["telemetry_injected"],
            "actuation_injected": detail["actuation_injected"],
            "telemetry_flags": detail["telemetry_flags"],
            "crash_events": detail["crash_events"],
            "restarts": detail["restarts"],
            "safe_mode_intervals": detail["safe_mode_intervals"],
            "recovery_tracker": detail["recovery"],
            "placements": detail["placements"],
        },
    }
    rollup["invariants"] = evaluate(CONTROL_INVARIANTS, scenario, rollup, summaries)
    return rollup


def _row(name: str, r: Dict[str, object]) -> List[str]:
    att = r["attainment"]
    inv = r["invariants"]
    return [
        name,
        f"{att['healing']:.4f}",
        f"{att['nonhealing']:.4f}",
        f"{att['frozen_faulted']:.4f}",
        f"{att['frozen_healthy']:.4f}",
        mttr_cell(r),
        f"{sum(inv.values())}/{len(inv)}",
    ]


def _notes(r: Dict[str, object]) -> List[str]:
    detail = r["healing_detail"]
    notes = []
    if detail["restarts"]:
        notes.append(f"{len(detail['restarts'])} journal restart(s)")
    if detail["safe_mode_intervals"]:
        spans = ", ".join(
            f"[{i['entered_epoch']}, {i['exited_epoch']}]"
            for i in detail["safe_mode_intervals"]
        )
        notes.append(f"safe mode {spans}")
    if detail["telemetry_flags"]:
        notes.append(f"{detail['telemetry_flags']} telemetry flag(s)")
    if detail["placements"]:
        chips = ", ".join(p["chip"] for p in detail["placements"])
        notes.append(f"replacement(s) placed on {chips}")
    return ["; ".join(notes)] if notes else []


#: the ``repro chaos --control`` table
CONTROL_VIEW = CatalogueView(
    "chaos --control",
    24,
    ("scenario", "healing", "nonheal", "frozen", "healthy", "mttr ms", "invariants"),
    _row,
    _notes,
)


# -- the scenario catalogue --------------------------------------------------

#: every scenario at seed 1; no fault schedule here depends on the seed
_CATALOGUE = (
    ControlChaosScenario(
        name="crash-replace",
        description=(
            "one replica fail-stops near capacity; the healing loop "
            "replaces it at the next boundary while the frozen fleet sheds"
        ),
        data_faults=FaultSchedule(replica_faults=(ReplicaFault("crash", 1, 10.0),)),
        invariants=(
            "zero-silent-drops",
            "crash-replaced",
            "bounded-mttr",
            "attainment-floor",
            "beats-nonhealing",
        ),
    ),
    ControlChaosScenario(
        name="failslow-drain",
        description=(
            "a gray failure (4x fail-slow window) trips the service-ratio "
            "detector; the loop drains and replaces one-for-one"
        ),
        data_faults=FaultSchedule(
            replica_faults=(
                ReplicaFault("slow", 0, 10.0, factor=4.0, duration_s=20.0),
            )
        ),
        invariants=("zero-silent-drops", "attainment-floor"),
    ),
    ControlChaosScenario(
        name="mask-replan",
        description=(
            "a PE machine check masks 4 columns mid-run; the healing loop "
            "replans the replica through Algorithm 2 instead of draining "
            "the whole chip"
        ),
        data_faults=FaultSchedule(mask_faults=(MaskFault(10.0, 0, PEMask(4, 0)),)),
        invariants=(
            "zero-silent-drops",
            "replan-applied",
            "attainment-floor",
            "beats-nonhealing",
        ),
    ),
    ControlChaosScenario(
        name="chip-spare",
        description=(
            "a crash with fleet context: the replacement is placed onto a "
            "surviving chip through place_tenants, not conjured from air"
        ),
        fleet_spec="pool:16-16:5",
        data_faults=FaultSchedule(replica_faults=(ReplicaFault("crash", 1, 10.0),)),
        invariants=(
            "zero-silent-drops",
            "crash-replaced",
            "placement-used",
            "attainment-floor",
        ),
    ),
    ControlChaosScenario(
        name="flash-telemetry",
        description=(
            "stale and lossy telemetry land exactly as a flash crowd "
            "arrives; the guarded loop flags every tampered window, holds "
            "rather than plan on lies, and still answers the flash once "
            "telemetry clears"
        ),
        rate_rps=260.0,
        replicas=2,
        flash=(16.0, 14.0, 2.2),
        control_faults=ControlFaultSchedule(
            telemetry=(
                TelemetryFault("stale", 7),
                TelemetryFault("loss", 8, 0.6),
                TelemetryFault("stale", 9),
            )
        ),
        # three flagged windows would trip the default threshold and freeze
        # the fleet mid-flash; holding per-window is the guard under test
        safe_mode=SafeModePolicy(fault_threshold=4, window_epochs=6),
        invariants=(
            "zero-silent-drops",
            "telemetry-detected",
            "attainment-floor",
        ),
    ),
    ControlChaosScenario(
        name="flaky-actuator",
        description=(
            "scale-up commands are silently lost during a flash crowd; the "
            "verifier's failed expectations drive re-issue until the fleet "
            "actually reaches its target"
        ),
        rate_rps=260.0,
        flash=(16.0, 16.0, 2.2),
        control_faults=ControlFaultSchedule(
            actuation=(
                ActuationFault(14, "fail"),
                ActuationFault(16, "fail"),
            )
        ),
        invariants=(
            "zero-silent-drops",
            "actuation-caught",
            "beats-nonhealing",
        ),
    ),
    ControlChaosScenario(
        name="loop-restart",
        description=(
            "the controller crashes just before a flash crowd; the healing "
            "loop restarts from its journal mid-flash and scales, the "
            "non-restarting loop stays dead at the small fleet"
        ),
        rate_rps=260.0,
        replicas=2,
        flash=(18.0, 14.0, 2.2),
        control_faults=ControlFaultSchedule(crashes=(LoopCrash(7, 2),)),
        invariants=(
            "zero-silent-drops",
            "resumed-from-journal",
            "beats-nonhealing",
        ),
    ),
    # a fleet with headroom and nothing to scale: the invariant under a
    # control-plane storm is *do no harm* — freeze and keep serving
    ControlChaosScenario(
        name="control-storm-safe-mode",
        description=(
            "a storm of tampered telemetry with a healthy fleet: safe mode "
            "freezes all actuation and the tier serves exactly like the "
            "frozen baseline — a blind controller must not reshape a "
            "working fleet"
        ),
        rate_rps=260.0,
        replicas=3,
        autoscale=AutoscalePolicy(
            epoch_s=2.0,
            min_replicas=3,
            max_replicas=8,
            retune=False,
        ),
        control_faults=ControlFaultSchedule(
            telemetry=(
                TelemetryFault("loss", 3, 0.5),
                TelemetryFault("stale", 4),
                TelemetryFault("duplicate", 5),
                TelemetryFault("loss", 6, 0.5),
                TelemetryFault("stale", 7),
                TelemetryFault("loss", 8, 0.5),
            )
        ),
        safe_mode=SafeModePolicy(
            fault_threshold=3, window_epochs=6, clean_epochs=3
        ),
        invariants=(
            "zero-silent-drops",
            "telemetry-detected",
            "safe-mode-entered",
            "safe-mode-floor",
        ),
    ),
    # the benchmark scenario: data-plane and control-plane faults layered
    # over a flash crowd, every healing path exercised in one run
    ControlChaosScenario(
        name="composite-storm",
        description=(
            "fail-stop + PE mask + flash crowd while telemetry is tampered, "
            "a scale-up is lost, and the controller itself crashes and "
            "restarts from its journal"
        ),
        rate_rps=300.0,
        duration_s=60.0,
        flash=(36.0, 16.0, 2.0),
        data_faults=FaultSchedule(
            replica_faults=(ReplicaFault("crash", 1, 10.0),),
            mask_faults=(MaskFault(22.0, 0, PEMask(4, 0)),),
        ),
        control_faults=ControlFaultSchedule(
            telemetry=(
                TelemetryFault("stale", 19),
                TelemetryFault("loss", 20, 0.5),
            ),
            actuation=(ActuationFault(18, "fail"),),
            crashes=(LoopCrash(14, 2),),
        ),
        # the storm is dense enough to trip the default safe-mode policy;
        # this scenario measures repair throughput, not do-no-harm, so the
        # threshold sits above the storm (safe mode has its own scenario)
        safe_mode=SafeModePolicy(fault_threshold=5, window_epochs=6),
        mttr_deadline_s=14.0,
        recovery_frac=0.8,
        invariants=(
            "zero-silent-drops",
            "crash-replaced",
            "replan-applied",
            "telemetry-detected",
            "actuation-caught",
            "resumed-from-journal",
            "bounded-mttr",
            "attainment-floor",
            "beats-nonhealing",
        ),
    ),
)


def _at_seed(scenario: ControlChaosScenario, seed: int) -> ControlChaosScenario:
    return dataclasses.replace(scenario, seed=seed)


_BUILDERS = {s.name: functools.partial(_at_seed, s) for s in _CATALOGUE}

CONTROL_SCENARIO_NAMES, build_control_scenario = registry(
    _BUILDERS, "control scenario"
)
