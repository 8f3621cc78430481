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
the frozen-healthy arm), and a dict of named **invariants** — the CLI
(``repro chaos --control``) exits non-zero when any is false:

==========================  ====================================================
``zero-silent-drops``       every arm satisfies offered == completed+shed+failed
``bounded-mttr``            healing goodput recovers within the deadline
``attainment-floor``        healing attainment >= floor x frozen-faulted
``beats-nonhealing``        healing attainment >= the non-healing loop
``crash-replaced``          every data-plane crash drew a replace action
``replan-applied``          every PE-mask fault drew a replan action
``telemetry-detected``      every exercised telemetry fault was flagged
``actuation-caught``        exercised actuation faults surfaced as failed
                            verifications or retries
``resumed-from-journal``    every loop crash produced a journal restart
``safe-mode-entered``       the control-fault storm tripped safe mode
``safe-mode-floor``         safe-mode healing serves no worse than the
                            frozen fleet (freezing must not shed)
``placement-used``          replacements were placed via place_tenants
==========================  ====================================================

Everything is a deterministic function of (scenario, seed); the rollup
renders byte-stable through :func:`repro.serve.metrics.to_json`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.errors import ConfigError
from repro.resilience.faults import (
    FaultSchedule,
    MaskFault,
    PEMask,
    ReplicaFault,
)
from repro.resilience.scenarios import goodput_series, mttr_ms
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import AdaptiveServingEngine
from repro.serve.workload import diurnal_arrivals, parse_mix, poisson_arrivals
from repro.control.chaos import (
    ActuationFault,
    ControlFaultSchedule,
    LoopCrash,
    SafeModePolicy,
    TelemetryFault,
    apply_fault_schedule,
)
from repro.control.healing import HealingPolicy, SelfHealingControlLoop
from repro.control.policy import AutoscalePolicy
from repro.control.verifier import VerifierPolicy
from repro.tenancy.fleet import FleetSpec, parse_fleet
from repro.tenancy.placement import demand_from_tenants

__all__ = [
    "ControlChaosScenario",
    "run_control_scenario",
    "build_control_scenario",
    "CONTROL_INVARIANT_NAMES",
    "CONTROL_SCENARIO_NAMES",
]

CONTROL_INVARIANT_NAMES = (
    "zero-silent-drops",
    "bounded-mttr",
    "attainment-floor",
    "beats-nonhealing",
    "crash-replaced",
    "replan-applied",
    "telemetry-detected",
    "actuation-caught",
    "resumed-from-journal",
    "safe-mode-entered",
    "safe-mode-floor",
    "placement-used",
)


@dataclass(frozen=True)
class ControlChaosScenario:
    """One named chaos-under-autoscaling experiment, fully pinned."""

    name: str
    description: str
    data_faults: FaultSchedule = field(default_factory=FaultSchedule)
    control_faults: ControlFaultSchedule = field(
        default_factory=ControlFaultSchedule
    )
    mix: str = "alexnet"
    rate_rps: float = 420.0
    duration_s: float = 40.0
    replicas: int = 3
    seed: int = 1
    slo_ms: float = 120.0
    max_batch: int = 8
    autoscale: AutoscalePolicy = field(
        default_factory=lambda: AutoscalePolicy(
            epoch_s=2.0, min_replicas=2, max_replicas=8
        )
    )
    verifier: VerifierPolicy = field(default_factory=VerifierPolicy)
    healing: HealingPolicy = field(default_factory=HealingPolicy)
    safe_mode: SafeModePolicy = field(default_factory=SafeModePolicy)
    #: flash crowd (start_s, duration_s, factor); 1.0 factor = steady
    flash: Optional[Tuple[float, float, float]] = None
    #: fleet context for placed replacements ("" = none)
    fleet_spec: str = ""
    #: goodput-series window for the MTTR scan
    window_s: float = 2.0
    #: recovery target as a fraction of frozen-healthy goodput
    recovery_frac: float = 0.85
    #: deadline for ``bounded-mttr``, seconds after the first data fault
    mttr_deadline_s: float = 10.0
    #: floor for ``attainment-floor`` (x frozen-faulted attainment)
    floor_frac: float = 1.0
    invariants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ConfigError(
                f"replicas must be positive, got {self.replicas!r}"
            )
        if not self.duration_s > 0:
            raise ConfigError(
                f"duration must be positive, got {self.duration_s!r}"
            )
        if not self.window_s > 0:
            raise ConfigError(
                f"window_s must be positive, got {self.window_s!r}"
            )
        if not 0 < self.recovery_frac <= 1:
            raise ConfigError(
                f"recovery_frac must be in (0, 1], got {self.recovery_frac!r}"
            )
        for inv in self.invariants:
            if inv not in CONTROL_INVARIANT_NAMES:
                raise ConfigError(
                    f"unknown invariant {inv!r}; choose from "
                    f"{CONTROL_INVARIANT_NAMES}"
                )
        if self.data_faults.link_faults:
            raise ConfigError(
                "control scenarios have no inter-chip pipeline context; "
                "price link faults via repro.resilience.scenarios instead"
            )
        self.data_faults.validate_for(self.replicas)

    def meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "mix": self.mix,
            "rate_rps": round(self.rate_rps, 6),
            "duration_s": round(self.duration_s, 6),
            "replicas": self.replicas,
            "slo_ms": round(self.slo_ms, 6),
            "max_batch": self.max_batch,
            "flash": list(self.flash) if self.flash else None,
            "fleet": self.fleet_spec or None,
            "autoscale": self.autoscale.to_dict(),
            "healing": self.healing.to_dict(),
            "safe_mode": self.safe_mode.to_dict(),
            "data_faults": self.data_faults.to_dict(),
            "control_faults": self.control_faults.to_dict(),
            "invariants": list(self.invariants),
        }


# -- helpers -----------------------------------------------------------------


def _requests(scenario: ControlChaosScenario, tenants) -> List[object]:
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


def _digest(summary: Dict[str, object]) -> Dict[str, object]:
    lat = summary["latency_ms"]
    return {
        "offered": summary["offered"],
        "completed": summary["completed"],
        "shed": summary["shed"],
        "failed": summary["failed"],
        "goodput_rps": summary["goodput_rps"],
        "deadline_hit_rate": summary["deadline_hit_rate"],
        "utilization": summary["utilization"],
        "latency_ms": {
            "p50": lat["p50"],
            "p95": lat["p95"],
            "p99": lat["p99"],
        },
        "makespan_s": summary["makespan_s"],
    }


def _check_accounting(arm: str, summary: Dict[str, object]) -> None:
    offered = int(summary["offered"])
    terminated = (
        int(summary["completed"]) + int(summary["shed"]) + int(summary["failed"])
    )
    if offered != terminated:
        raise ConfigError(
            f"arm {arm!r} dropped requests silently: offered {offered} != "
            f"completed+shed+failed {terminated}"
        )


def _first_fault_s(schedule: FaultSchedule) -> Optional[float]:
    times = [f.time_s for f in schedule.replica_faults]
    times.extend(f.time_s for f in schedule.mask_faults)
    times.extend(f.time_s for f in schedule.sdc_faults)
    return min(times) if times else None


def _recovery_scan(
    scenario: ControlChaosScenario,
    healthy_summary: Dict[str, object],
    healing_records,
    healing_makespan_s: float,
) -> Dict[str, object]:
    """When does the healing arm's windowed goodput clear the target?"""
    first = _first_fault_s(scenario.data_faults)
    target = scenario.recovery_frac * float(healthy_summary["goodput_rps"])
    out: Dict[str, object] = {
        "first_fault_ms": round(first * 1e3, 6) if first is not None else None,
        "target_goodput_rps": round(target, 6),
        "mttr_ms": None,
        "recovered": False,
        "deadline_ms": round(scenario.mttr_deadline_s * 1e3, 6),
    }
    if first is None:
        return out
    series = goodput_series(
        healing_records, first, healing_makespan_s, scenario.window_s
    )
    out["mttr_ms"] = mttr_ms(series, target, scenario.window_s)
    out["recovered"] = out["mttr_ms"] is not None
    return out


# -- invariants --------------------------------------------------------------


def _evaluate_invariants(
    scenario: ControlChaosScenario,
    arms: Dict[str, Dict[str, object]],
    healing_summary: Dict[str, object],
    recovery: Dict[str, object],
) -> Dict[str, bool]:
    healing = arms["healing"]
    frozen = arms["frozen-faulted"]
    nonhealing = arms["nonhealing"]
    detail = healing_summary["healing"]
    control = healing_summary["control"]
    actions = control["actions_by_kind"]
    epochs = control["epochs"]

    def retry_actions() -> int:
        return sum(
            1
            for rec in epochs
            for act in rec.get("actions", ())
            if str(act.get("reason", "")).startswith("retry after failed")
        )

    out: Dict[str, bool] = {}
    for inv in scenario.invariants:
        if inv == "zero-silent-drops":
            # _check_accounting already raised on violation; record it
            ok = all(
                int(arm["offered"])
                == int(arm["completed"]) + int(arm["shed"]) + int(arm["failed"])
                for arm in arms.values()
            )
        elif inv == "bounded-mttr":
            ok = bool(recovery["recovered"]) and (
                float(recovery["mttr_ms"]) <= scenario.mttr_deadline_s * 1e3
            )
        elif inv == "attainment-floor":
            ok = (
                float(healing["deadline_hit_rate"])
                >= scenario.floor_frac * float(frozen["deadline_hit_rate"])
            )
        elif inv == "beats-nonhealing":
            ok = float(healing["deadline_hit_rate"]) >= float(
                nonhealing["deadline_hit_rate"]
            )
        elif inv == "crash-replaced":
            crashes = len(scenario.data_faults.crashes)
            ok = crashes > 0 and actions.get("replace", 0) >= crashes
        elif inv == "replan-applied":
            masks = len(scenario.data_faults.mask_faults)
            ok = masks > 0 and actions.get("replan", 0) >= masks
        elif inv == "telemetry-detected":
            injected = len(detail["telemetry_injected"])
            ok = injected > 0 and int(detail["telemetry_flags"]) >= injected
        elif inv == "actuation-caught":
            exercised = len(detail["actuation_injected"])
            failed = control["verdicts_by_status"].get("failed", 0)
            ok = exercised > 0 and (failed > 0 or retry_actions() > 0)
        elif inv == "resumed-from-journal":
            crashes = len(scenario.control_faults.crashes)
            restarts = detail["restarts"]
            ok = (
                crashes > 0
                and len(restarts) >= crashes
                and all(r["journal_epochs"] > 0 for r in restarts)
            )
        elif inv == "safe-mode-entered":
            ok = len(detail["safe_mode_intervals"]) >= 1
        elif inv == "safe-mode-floor":
            ok = int(healing["completed"]) >= int(frozen["completed"])
        elif inv == "placement-used":
            placements = detail["placements"]
            ok = len(placements) >= 1 and all(
                p.get("chip") for p in placements
            )
        else:  # pragma: no cover - guarded by __post_init__
            raise ConfigError(f"unknown invariant {inv!r}")
        out[inv] = bool(ok)
    return out


# -- the runner --------------------------------------------------------------


def run_control_scenario(
    scenario: ControlChaosScenario,
    config: AcceleratorConfig = CONFIG_16_16,
) -> Dict[str, object]:
    """Run all four arms on the same seeded requests; returns the rollup."""
    tenants = parse_mix(scenario.mix, slo_ms=scenario.slo_ms)
    requests = _requests(scenario, tenants)
    coster = BatchCoster(config)
    batch_policy = BatchPolicy(max_batch=scenario.max_batch)
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

    def frozen_engine(faulted: bool):
        engine = AdaptiveServingEngine(
            config,
            batch_policy=batch_policy,
            replicas=scenario.replicas,
            coster=coster,
            chip_map=chip_map,
        )
        if faulted and not scenario.data_faults.is_empty:
            apply_fault_schedule(engine, scenario.data_faults, config)
        report = engine.run(list(requests), scenario.duration_s)
        return dict(report.summary), report.metrics.completed

    def loop_arm(healing: HealingPolicy, safe: SafeModePolicy):
        loop = SelfHealingControlLoop(
            config,
            tenants,
            autoscale=scenario.autoscale,
            verifier=scenario.verifier,
            healing=healing,
            safe_mode=safe,
            control_faults=scenario.control_faults,
            batch_policy=batch_policy,
            replicas=scenario.replicas,
            coster=coster,
            fleet=fleet,
            demands=demands,
            chip_map=chip_map,
        )
        report = loop.run(
            list(requests),
            scenario.duration_s,
            data_faults=scenario.data_faults
            if not scenario.data_faults.is_empty
            else None,
        )
        return report.summary, report.serving.metrics.completed

    healthy_summary, _ = frozen_engine(faulted=False)
    faulted_summary, _ = frozen_engine(faulted=True)
    nonhealing_summary, _ = loop_arm(
        HealingPolicy.disabled(), SafeModePolicy(enabled=False)
    )
    healing_summary, healing_records = loop_arm(
        scenario.healing, scenario.safe_mode
    )

    arms = {
        "frozen-healthy": _digest(healthy_summary),
        "frozen-faulted": _digest(faulted_summary),
        "nonhealing": _digest(nonhealing_summary),
        "healing": _digest(healing_summary),
    }
    for name, arm in arms.items():
        _check_accounting(name, arm)

    recovery = _recovery_scan(
        scenario,
        healthy_summary,
        healing_records,
        float(healing_summary["makespan_s"]),
    )
    invariants = _evaluate_invariants(
        scenario, arms, healing_summary, recovery
    )

    for loop_name, summary in (
        ("nonhealing", nonhealing_summary),
        ("healing", healing_summary),
    ):
        arms[loop_name]["actions_by_kind"] = summary["control"][
            "actions_by_kind"
        ]
        arms[loop_name]["verdicts_by_status"] = summary["control"][
            "verdicts_by_status"
        ]

    detail = healing_summary["healing"]
    return {
        "scenario": scenario.meta(),
        "seed": scenario.seed,
        "arms": arms,
        "attainment": {
            "healing": arms["healing"]["deadline_hit_rate"],
            "nonhealing": arms["nonhealing"]["deadline_hit_rate"],
            "frozen_faulted": arms["frozen-faulted"]["deadline_hit_rate"],
            "frozen_healthy": arms["frozen-healthy"]["deadline_hit_rate"],
            "delta_vs_frozen": round(
                float(arms["healing"]["deadline_hit_rate"])
                - float(arms["frozen-faulted"]["deadline_hit_rate"]),
                6,
            ),
            "delta_vs_nonhealing": round(
                float(arms["healing"]["deadline_hit_rate"])
                - float(arms["nonhealing"]["deadline_hit_rate"]),
                6,
            ),
        },
        "recovery": recovery,
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
        "invariants": invariants,
    }


# -- the scenario catalogue --------------------------------------------------


def _crash_replace(seed: int) -> ControlChaosScenario:
    return ControlChaosScenario(
        name="crash-replace",
        description=(
            "one replica fail-stops near capacity; the healing loop "
            "replaces it at the next boundary while the frozen fleet sheds"
        ),
        seed=seed,
        data_faults=FaultSchedule(
            replica_faults=(ReplicaFault("crash", 1, 10.0),)
        ),
        invariants=(
            "zero-silent-drops",
            "crash-replaced",
            "bounded-mttr",
            "attainment-floor",
            "beats-nonhealing",
        ),
    )


def _failslow_drain(seed: int) -> ControlChaosScenario:
    return ControlChaosScenario(
        name="failslow-drain",
        description=(
            "a gray failure (4x fail-slow window) trips the service-ratio "
            "detector; the loop drains and replaces one-for-one"
        ),
        seed=seed,
        data_faults=FaultSchedule(
            replica_faults=(
                ReplicaFault("slow", 0, 10.0, factor=4.0, duration_s=20.0),
            )
        ),
        invariants=(
            "zero-silent-drops",
            "attainment-floor",
        ),
    )


def _mask_replan(seed: int) -> ControlChaosScenario:
    return ControlChaosScenario(
        name="mask-replan",
        description=(
            "a PE machine check masks 4 columns mid-run; the healing loop "
            "replans the replica through Algorithm 2 instead of draining "
            "the whole chip"
        ),
        seed=seed,
        data_faults=FaultSchedule(
            mask_faults=(MaskFault(10.0, 0, PEMask(4, 0)),)
        ),
        invariants=(
            "zero-silent-drops",
            "replan-applied",
            "attainment-floor",
            "beats-nonhealing",
        ),
    )


def _chip_spare(seed: int) -> ControlChaosScenario:
    return ControlChaosScenario(
        name="chip-spare",
        description=(
            "a crash with fleet context: the replacement is placed onto a "
            "surviving chip through place_tenants, not conjured from air"
        ),
        seed=seed,
        fleet_spec="pool:16-16:5",
        data_faults=FaultSchedule(
            replica_faults=(ReplicaFault("crash", 1, 10.0),)
        ),
        invariants=(
            "zero-silent-drops",
            "crash-replaced",
            "placement-used",
            "attainment-floor",
        ),
    )


def _flash_telemetry(seed: int) -> ControlChaosScenario:
    return ControlChaosScenario(
        name="flash-telemetry",
        description=(
            "stale and lossy telemetry land exactly as a flash crowd "
            "arrives; the guarded loop flags every tampered window, holds "
            "rather than plan on lies, and still answers the flash once "
            "telemetry clears"
        ),
        seed=seed,
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
    )


def _flaky_actuator(seed: int) -> ControlChaosScenario:
    return ControlChaosScenario(
        name="flaky-actuator",
        description=(
            "scale-up commands are silently lost during a flash crowd; the "
            "verifier's failed expectations drive re-issue until the fleet "
            "actually reaches its target"
        ),
        seed=seed,
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
    )


def _loop_restart(seed: int) -> ControlChaosScenario:
    return ControlChaosScenario(
        name="loop-restart",
        description=(
            "the controller crashes just before a flash crowd; the healing "
            "loop restarts from its journal mid-flash and scales, the "
            "non-restarting loop stays dead at the small fleet"
        ),
        seed=seed,
        rate_rps=260.0,
        replicas=2,
        flash=(18.0, 14.0, 2.2),
        control_faults=ControlFaultSchedule(crashes=(LoopCrash(7, 2),)),
        invariants=(
            "zero-silent-drops",
            "resumed-from-journal",
            "beats-nonhealing",
        ),
    )


def _control_storm(seed: int) -> ControlChaosScenario:
    # a fleet with headroom and nothing to scale: the invariant under a
    # control-plane storm is *do no harm* — freeze and keep serving
    return ControlChaosScenario(
        name="control-storm-safe-mode",
        description=(
            "a storm of tampered telemetry with a healthy fleet: safe mode "
            "freezes all actuation and the tier serves exactly like the "
            "frozen baseline — a blind controller must not reshape a "
            "working fleet"
        ),
        seed=seed,
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
    )


def _composite_storm(seed: int) -> ControlChaosScenario:
    # the benchmark scenario: data-plane and control-plane faults layered
    # over a flash crowd, every healing path exercised in one run
    return ControlChaosScenario(
        name="composite-storm",
        description=(
            "fail-stop + PE mask + flash crowd while telemetry is tampered, "
            "a scale-up is lost, and the controller itself crashes and "
            "restarts from its journal"
        ),
        seed=seed,
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
    )


_BUILDERS = {
    "crash-replace": _crash_replace,
    "failslow-drain": _failslow_drain,
    "mask-replan": _mask_replan,
    "chip-spare": _chip_spare,
    "flash-telemetry": _flash_telemetry,
    "flaky-actuator": _flaky_actuator,
    "loop-restart": _loop_restart,
    "control-storm-safe-mode": _control_storm,
    "composite-storm": _composite_storm,
}

CONTROL_SCENARIO_NAMES = tuple(sorted(_BUILDERS))


def build_control_scenario(name: str, seed: int = 1) -> ControlChaosScenario:
    """One catalogue scenario by name (deterministic in ``seed``)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown control scenario {name!r}; choose from "
            f"{CONTROL_SCENARIO_NAMES}"
        ) from None
    return builder(seed)
