"""The control loop: autoscaling, repair actions, journaled restart, safe mode.

:class:`SelfHealingControlLoop` steps one
:class:`~repro.serve.engine.AdaptiveServingEngine` through fixed control
epochs of simulated time.  At every boundary the verifier resolves last
epoch's expectations (including the oscillation freeze), the detector
windows the telemetry, the planner decides, and the actuator applies the
actions and registers new expectations.  That closed autoscaling loop
gets three additions, each gated by :class:`HealingPolicy` so the
un-healed loop (:meth:`HealingPolicy.disabled`, what ``repro autoscale``
runs) remains available as a baseline arm:

* **repair planning** — every epoch the loop *probes* the fleet
  (:func:`probe_fleet`: ground-truth machine-check state, the analogue of
  a node-agent heartbeat) and the :class:`HealingPlanner` emits repair
  actions ahead of load-driven scaling: ``replace`` a crashed replica
  (placed onto a surviving chip through
  :func:`repro.tenancy.place_tenants` when fleet context is given),
  ``replan`` a PE-degraded replica through Algorithm 2
  (:func:`repro.resilience.degrade.degraded_config`), and ``rollback`` to
  the last-known-good fleet shape when an incident misses its recovery
  deadline.  Fault repair is separated from load response by the
  detector's per-replica observed/expected ratios: a replanned replica is
  costed by its *own* degraded-geometry coster, so it reads healthy again
  and load signals stay trustworthy;
* **control-plane fault tolerance** — telemetry arrives through a
  :class:`~repro.control.chaos.TelemetryChannel` and is *validated*
  (epoch/boundary identity, arrivals cross-checked against the ingress
  counter) before the planner may act on it; actions are verified against
  engine state and re-issued when actuation silently failed; a loop crash
  loses all in-memory control state and the restart rebuilds it from the
  decisions journal plus engine ground truth
  (:meth:`~repro.control.telemetry.Detector.resume` is exact, so the
  resumed loop's future windows are bit-identical);
* **safe mode** — a sliding-window count of *detected* control-plane
  faults (tampered telemetry, failed verifications, loop crashes); past
  :class:`~repro.control.chaos.SafeModePolicy.fault_threshold` the loop
  freezes every actuation — scaling, retune, and repairs alike — and just
  keeps serving, because a controller that cannot trust its own senses
  must not be allowed to reshape a working fleet.  ``clean_epochs``
  consecutive quiet epochs release it.

Everything is journaled per epoch (window, delivered telemetry, probe,
actions, verdicts, safe-mode state, last-known-good) and the journal is
both the crash-restart source and the decisions log in the report —
bit-deterministic given the workload seed and the fault schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_count, check_real
from repro.perf.instrument import phase
from repro.resilience.degrade import degraded_config
from repro.resilience.faults import FaultSchedule, PEMask
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import AdaptiveServingEngine
from repro.serve.queue import QueuePolicy
from repro.serve.workload import Request, TenantSpec
from repro.tenancy.fleet import ChipSpec, FleetSpec
from repro.tenancy.placement import TenantDemand, place_tenants
from repro.control.actuator import Actuator, AppliedAction
from repro.control.chaos import (
    ControlFaultSchedule,
    FlakyActuator,
    SafeModeController,
    SafeModePolicy,
    TelemetryChannel,
    apply_fault_schedule,
)
from repro.control.loop import ControlReport
from repro.control.policy import (
    Action,
    AutoscalePolicy,
    Planner,
    PlannerFeedback,
)
from repro.control.telemetry import Detector, WindowStats
from repro.control.verifier import Verifier

__all__ = [
    "HealingPolicy",
    "ProbeReport",
    "probe_fleet",
    "HealingPlanner",
    "HealingActuator",
    "RecoveryTracker",
    "SelfHealingControlLoop",
]


#: epochs an incident may stay open before rollback triggers
RECOVERY_DEADLINE_EPOCHS = 4


@dataclass(frozen=True)
class HealingPolicy:
    """Whether self-healing is armed (off = plain autoscaling).

    ``enabled`` arms every behavior at once: replace a crashed replica at
    the next boundary, replan a PE-degraded one through Algorithm 2, roll
    back to the last-known-good fleet when an incident stays open for
    :data:`RECOVERY_DEADLINE_EPOCHS`, validate telemetry before planning on
    it, re-issue actions whose verification failed, and restart from the
    journal after a loop crash (else the loop stays dead).
    """

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "HealingPolicy":
        """The non-healing baseline: plain autoscaling under the same faults."""
        return cls(enabled=False)

    def to_dict(self) -> Dict[str, object]:
        on = self.enabled
        return {
            "replace_crashed": on,
            "replan_degraded": on,
            "rollback": on,
            "telemetry_guard": on,
            "retry_failed_actions": on,
            "restart_on_crash": on,
            "recovery_deadline_epochs": RECOVERY_DEADLINE_EPOCHS,
        }


# -- the probe ---------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Ground-truth fleet health at one epoch boundary.

    This is the node-agent side channel: crashes and PE machine checks are
    self-reported by the hardware, so the probe works even when windowed
    telemetry is being tampered with — which is exactly why repairs keep
    flowing through telemetry faults.
    """

    n_active: int
    #: crashed rids no replace action has covered yet
    crashed_unreplaced: Tuple[int, ...]
    #: (rid, masked_cols, masked_rows) degraded but not yet replanned
    degraded_pending: Tuple[Tuple[int, int, int], ...]
    #: chips hosting at least one crashed replica and no live one
    failed_chips: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_active": self.n_active,
            "crashed_unreplaced": list(self.crashed_unreplaced),
            "degraded_pending": [
                {"replica": rid, "masked_cols": c, "masked_rows": r}
                for rid, c, r in self.degraded_pending
            ],
            "failed_chips": list(self.failed_chips),
        }


def probe_fleet(
    engine: AdaptiveServingEngine,
    replaced: Sequence[int],
    now: float,
) -> ProbeReport:
    """Read crash/degrade state straight off the engine's replicas."""
    covered = set(replaced)
    crashed = tuple(
        sorted(
            r.rid
            for r in engine.replicas
            if r.crashed_at is not None and r.rid not in covered
        )
    )
    degraded = tuple(
        sorted(
            (
                r.rid,
                int(r.degraded["masked_cols"]),
                int(r.degraded["masked_rows"]),
            )
            for r in engine.replicas
            if r.active
            and r.degraded is not None
            and not r.degraded.get("replanned")
            and float(r.degraded["from_s"]) <= now
        )
    )
    live_chips = {
        r.chip for r in engine.replicas if r.active and r.chip is not None
    }
    failed_chips = tuple(
        sorted(
            {
                r.chip
                for r in engine.replicas
                if r.crashed_at is not None
                and r.chip is not None
                and r.chip not in live_chips
            }
        )
    )
    return ProbeReport(
        n_active=engine.n_active(),
        crashed_unreplaced=crashed,
        degraded_pending=degraded,
        failed_chips=failed_chips,
    )


# -- planner -----------------------------------------------------------------


class HealingPlanner(Planner):
    """The PR-7 planner plus repair planning ahead of load response."""

    def __init__(
        self,
        policy: AutoscalePolicy,
        coster: BatchCoster,
        slo_ms: Dict[str, float],
        healing: HealingPolicy = HealingPolicy(),
        fleet: Optional[FleetSpec] = None,
        demands: Optional[Sequence[TenantDemand]] = None,
        plan_policy: str = "adaptive-2",
    ) -> None:
        super().__init__(policy, coster, slo_ms)
        self.healing = healing
        self.fleet = fleet
        self.demands = list(demands) if demands else None
        self.plan_policy = plan_policy
        #: crashed rids a replace action already covers
        self._replaced: set = set()
        #: degraded rids a replan action already covers
        self._replanned: set = set()
        #: surviving-fleet placements computed for replacements (report)
        self.placements: List[Dict[str, object]] = []

    @property
    def replaced(self) -> Sequence[int]:
        return sorted(self._replaced)

    # -- repair planning ---------------------------------------------------

    def _surviving_fleet(self, failed_chips: Sequence[str]) -> Optional[FleetSpec]:
        """The declared fleet minus the chips the probe marked failed."""
        if self.fleet is None:
            return None
        failed = list(failed_chips)
        chips: List[ChipSpec] = []
        for chip in self.fleet.chips:
            # chip ids are f"{class}{index}"; count this class's casualties
            down = sum(
                1
                for cid in failed
                if cid.startswith(chip.name) and cid[len(chip.name):].isdigit()
            )
            if chip.count - down > 0:
                chips.append(
                    ChipSpec(
                        name=chip.name,
                        config=chip.config,
                        count=chip.count - down,
                        cost_weight=chip.cost_weight,
                        partitions=chip.partitions,
                    )
                )
        if not chips:
            return None
        return FleetSpec(f"{self.fleet.name}-survivors", tuple(chips))

    def _place_replacement(
        self, rid: int, probe: ProbeReport, epoch: int
    ) -> Optional[str]:
        """Re-place the tenants over the survivors; returns the chip the
        placer wants the replacement on (``None`` without fleet context)."""
        surviving = self._surviving_fleet(probe.failed_chips)
        if surviving is None or not self.demands:
            return None
        placement = place_tenants(
            surviving, self.demands, plan_policy=self.plan_policy
        )
        slots = {s.slot_id: s for s in surviving.slots()}
        heaviest = max(self.demands, key=lambda d: (d.rate_rps, d.name))
        chip = slots[placement.slot_of[heaviest.name]].chip_id
        self.placements.append(
            {
                "epoch": epoch,
                "replica": rid,
                "fleet": surviving.name,
                "chip": chip,
                "passes": placement.passes,
                "assignments": {
                    name: slots[slot_id].chip_id
                    for name, slot_id in sorted(placement.slot_of.items())
                },
            }
        )
        return chip

    def plan_repairs(
        self,
        probe: ProbeReport,
        feedback: PlannerFeedback,
        epoch: int,
        t: float,
    ) -> List[Action]:
        if not self.healing.enabled:
            return []
        actions: List[Action] = []
        if probe.crashed_unreplaced:
            intended = min(
                self.policy.max_replicas,
                probe.n_active + len(probe.crashed_unreplaced),
            )
            budget = intended - probe.n_active
            for rid in probe.crashed_unreplaced[:budget]:
                chip = self._place_replacement(rid, probe, epoch)
                self._replaced.add(rid)
                actions.append(
                    Action(
                        kind="replace",
                        epoch=epoch,
                        time_s=t,
                        target=intended,
                        replica=rid,
                        chip=chip,
                        reason=(
                            f"replica {rid} fail-stop; "
                            f"restoring fleet to {intended}"
                        ),
                    )
                )
            if actions:
                self._last_scale_epoch = epoch
                self._last_target = intended
        for rid, cols, rows in probe.degraded_pending:
            if rid in self._replanned:
                continue
            self._replanned.add(rid)
            actions.append(
                Action(
                    kind="replan",
                    epoch=epoch,
                    time_s=t,
                    replica=rid,
                    reason=(
                        f"PE mask cols={cols} rows={rows} on replica "
                        f"{rid}; replanning through Algorithm 2"
                    ),
                )
            )
        retryable = sorted(
            set(feedback.failed_kinds)
            & {"scale-up", "replace", "rollback"}
        )
        target = self._last_target
        if retryable and target > probe.n_active:
            actions.append(
                Action(
                    kind="scale-up",
                    epoch=epoch,
                    time_s=t,
                    target=min(self.policy.max_replicas, target),
                    reason=(
                        "retry after failed verification of "
                        + "+".join(retryable)
                    ),
                )
            )
            self._last_scale_epoch = epoch
        return actions

    def plan_epoch(
        self,
        window: Optional[WindowStats],
        feedback: PlannerFeedback,
        probe: ProbeReport,
        epoch: int,
        t: float,
        safe_active: bool = False,
        rollback_to: Optional[Dict[str, object]] = None,
    ) -> List[Action]:
        """Repairs first, then rollback, then load-driven planning.

        ``window=None`` means telemetry for this epoch failed validation:
        load response holds (no trustworthy signal) but repairs still run —
        the probe is ground truth.  ``safe_active`` suppresses *everything*.
        """
        if safe_active:
            return []
        actions = self.plan_repairs(probe, feedback, epoch, t)
        if rollback_to is not None and self.healing.enabled:
            target = int(rollback_to["fleet_size"])
            actions.append(
                Action(
                    kind="rollback",
                    epoch=epoch,
                    time_s=t,
                    target=target,
                    max_batch=int(rollback_to["max_batch"]),
                    max_wait_ms=float(rollback_to["max_wait_ms"]),
                    reason=(
                        f"recovery deadline missed; restoring epoch-"
                        f"{rollback_to['epoch']} fleet shape"
                    ),
                )
            )
            self._last_scale_epoch = epoch
            self._last_target = target
        if window is None:
            return actions
        reshaping = any(
            a.kind in ("replace", "rollback", "scale-up") for a in actions
        )
        pending_replan = {rid for rid, _, _ in probe.degraded_pending} | (
            self._replanned if self.healing.enabled else set()
        )
        for action in super().plan(window, feedback):
            if action.kind == "drain" and action.replica in pending_replan:
                # the replan path owns this replica; draining it would
                # throw away a chip Algorithm 2 can keep serving on
                self._drained.discard(action.replica)
                continue
            if reshaping and action.kind in ("scale-up", "scale-down"):
                continue  # one fleet-shape change per epoch: repairs won
            actions.append(action)
        return actions


# -- actuator ----------------------------------------------------------------


class HealingActuator(Actuator):
    """The PR-7 actuator plus replace / replan / rollback."""

    def __init__(
        self,
        engine: AdaptiveServingEngine,
        config: Optional[AcceleratorConfig] = None,
        plan_policy: str = "adaptive-2",
    ) -> None:
        super().__init__(engine)
        self.config = config
        self.plan_policy = plan_policy
        #: degraded-geometry costers, memoized per mask
        self._costers: Dict[Tuple[int, int], BatchCoster] = {}

    def degraded_coster(self, masked_cols: int, masked_rows: int) -> BatchCoster:
        key = (masked_cols, masked_rows)
        if key not in self._costers:
            if self.config is None:
                raise ConfigError(
                    "replan actions need the actuator constructed with the "
                    "accelerator config"
                )
            cfg = degraded_config(self.config, PEMask(masked_cols, masked_rows))
            self._costers[key] = BatchCoster(cfg, policy=self.plan_policy)
        return self._costers[key]

    def _apply_one(self, action: Action) -> AppliedAction:
        engine = self.engine
        if action.kind == "replace":
            if action.target is None:
                raise ConfigError("replace action needs a target")
            if engine.n_active() >= action.target:
                return AppliedAction(
                    action, clipped=True, note="fleet already at target"
                )
            rid = engine.add_replica(chip=action.chip)
            return AppliedAction(action, added=[rid])
        if action.kind == "replan":
            if action.replica is None:
                raise ConfigError("replan action needs a replica")
            state = next(
                (r for r in engine.replicas if r.rid == action.replica), None
            )
            if (
                state is None
                or not state.active
                or state.degraded is None
                or state.degraded.get("replanned")
            ):
                return AppliedAction(
                    action, clipped=True, note="replica not degraded or gone"
                )
            coster = self.degraded_coster(
                int(state.degraded["masked_cols"]),
                int(state.degraded["masked_rows"]),
            )
            engine.heal_degraded(
                action.replica, coster, note=f"replan {coster.config.name}"
            )
            return AppliedAction(action)
        if action.kind == "rollback":
            if action.target is None:
                raise ConfigError("rollback action needs a target")
            added: List[int] = []
            drained: List[int] = []
            while engine.n_active() < action.target:
                added.append(engine.add_replica())
            while engine.n_active() > action.target and engine.n_active() > 1:
                victim = max(r.rid for r in engine.active_replicas())
                engine.drain_replica(victim, reason="rollback")
                drained.append(victim)
            if action.max_batch is not None and action.max_wait_ms is not None:
                engine.set_batch_policy(
                    BatchPolicy(
                        max_batch=action.max_batch,
                        max_wait_ms=action.max_wait_ms,
                    ),
                    reason="rollback",
                )
            return AppliedAction(action, added=added, drained=drained)
        return super()._apply_one(action)


# -- recovery tracking -------------------------------------------------------


class RecoveryTracker:
    """Last-known-good snapshots and per-incident recovery deadlines."""

    def __init__(self, deadline_epochs: int) -> None:
        self.deadline_epochs = deadline_epochs
        #: fleet shape at the last healthy epoch
        self.lkg: Optional[Dict[str, object]] = None
        #: the open incident, if any
        self.pending: Optional[Dict[str, object]] = None
        #: closed incidents
        self.recoveries: List[Dict[str, object]] = []
        self.rollbacks = 0
        self._recovered_base = 0
        self._rollback_base = 0

    def note(
        self,
        epoch: int,
        healthy: bool,
        causes: Sequence[str],
        fleet_size: int,
        max_batch: int,
        max_wait_ms: float,
    ) -> bool:
        """Advance one epoch; returns True when a rollback is due *now*."""
        if healthy:
            if self.pending is not None:
                self.recoveries.append(
                    {
                        "cause": self.pending["cause"],
                        "opened_epoch": self.pending["opened_epoch"],
                        "recovered_epoch": epoch,
                        "epochs_to_recover": epoch
                        - int(self.pending["opened_epoch"]),
                    }
                )
                self.pending = None
            self.lkg = {
                "epoch": epoch,
                "fleet_size": fleet_size,
                "max_batch": max_batch,
                "max_wait_ms": round(max_wait_ms, 6),
            }
            return False
        if causes and self.pending is None:
            self.pending = {
                "cause": ";".join(causes),
                "opened_epoch": epoch,
                "deadline_epoch": epoch + self.deadline_epochs,
            }
        if self.pending is not None and epoch >= int(
            self.pending["deadline_epoch"]
        ):
            # missed the deadline: request rollback and re-arm
            self.pending["deadline_epoch"] = epoch + self.deadline_epochs
            self.rollbacks += 1
            return True
        return False

    def to_dict(self) -> Dict[str, object]:
        return {
            "lkg": self.lkg,
            "pending": self.pending,
            "recovered": len(self.recoveries) + self._recovered_base,
            "rollbacks": self.rollbacks + self._rollback_base,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Rebuild from a journaled :meth:`to_dict` snapshot."""
        self.lkg = (
            dict(snapshot["lkg"]) if snapshot.get("lkg") is not None else None
        )
        self.pending = (
            dict(snapshot["pending"])
            if snapshot.get("pending") is not None
            else None
        )
        self._recovered_base = int(snapshot.get("recovered", 0))
        self._rollback_base = int(snapshot.get("rollbacks", 0))
        self.rollbacks = 0


# -- the loop ----------------------------------------------------------------


class SelfHealingControlLoop:
    """Closed-loop autoscaling that survives faults in itself."""

    def __init__(
        self,
        config: AcceleratorConfig,
        tenants: Sequence[TenantSpec],
        autoscale: AutoscalePolicy = AutoscalePolicy(),
        healing: HealingPolicy = HealingPolicy(),
        safe_mode: SafeModePolicy = SafeModePolicy(),
        control_faults: ControlFaultSchedule = ControlFaultSchedule(),
        batch_policy: BatchPolicy = BatchPolicy(),
        queue_policy: QueuePolicy = QueuePolicy(),
        replicas: int = 1,
        plan_policy: str = "adaptive-2",
        coster: Optional[BatchCoster] = None,
        fleet: Optional[FleetSpec] = None,
        demands: Optional[Sequence[TenantDemand]] = None,
        chip_map: Optional[Dict[int, str]] = None,
    ) -> None:
        if not tenants:
            raise ConfigError("control loop needs at least one tenant")
        replicas = check_count(replicas, "initial replicas", 1)
        if not (autoscale.min_replicas <= replicas <= autoscale.max_replicas):
            raise ConfigError(
                f"initial replicas {replicas!r} outside the autoscale bounds "
                f"[{autoscale.min_replicas}, {autoscale.max_replicas}]"
            )
        self.config = config
        self.tenants = list(tenants)
        self.autoscale = autoscale
        self.healing = healing
        self.safe_policy = safe_mode
        self.control_faults = control_faults
        self.fleet = fleet
        self.demands = list(demands) if demands else None
        self.plan_policy = plan_policy
        self.engine = AdaptiveServingEngine(
            config,
            batch_policy=batch_policy,
            queue_policy=queue_policy,
            replicas=replicas,
            routing="least-loaded",
            plan_policy=plan_policy,
            coster=coster,
            chip_map=chip_map,
        )
        self.channel = TelemetryChannel(
            Detector(self.engine, self.tenants), control_faults.telemetry
        )
        self.planner = self._new_planner()
        self.actuator = FlakyActuator(
            HealingActuator(self.engine, config, plan_policy),
            control_faults.actuation,
        )
        self.verifier = Verifier()
        self.safe = SafeModeController(safe_mode)
        self.tracker = RecoveryTracker(RECOVERY_DEADLINE_EPOCHS)
        self._crash_by_epoch = {c.epoch: c for c in control_faults.crashes}
        self._down = False
        self._down_until = -1
        self._offered_seen = 0
        self._verdict_cursor = 0
        #: per-epoch decisions log; the crash-restart source of truth
        self.journal: List[Dict[str, object]] = []
        self.all_verdicts: List[Dict[str, object]] = []
        self.crash_events: List[Dict[str, object]] = []
        self.restarts: List[Dict[str, object]] = []

    def _new_planner(self) -> HealingPlanner:
        return HealingPlanner(
            self.autoscale,
            self.engine.coster,
            {t.name: t.slo_ms for t in self.tenants},
            healing=self.healing,
            fleet=self.fleet,
            demands=self.demands,
            plan_policy=self.plan_policy,
        )

    # -- telemetry validation ---------------------------------------------

    def _validate_telemetry(
        self, delivered: Sequence[WindowStats], epoch: int, t_end: float
    ) -> Tuple[Optional[WindowStats], List[Dict[str, object]]]:
        """Pick the trustworthy window, flagging everything anomalous.

        Identity check: the window must claim this epoch and end exactly at
        this boundary (catches stale and duplicated deliveries).  Counter
        cross-check: windowed arrivals must equal the ingress counter's
        delta since the last validated boundary (catches lossy windows).
        """
        flags: List[Dict[str, object]] = []
        expected_arrivals = self.engine.offered - self._offered_seen
        window: Optional[WindowStats] = None
        for stats in delivered:
            if stats.epoch != epoch or stats.end_s != t_end:
                flags.append(
                    {
                        "epoch": epoch,
                        "kind": "identity-mismatch",
                        "claimed_epoch": stats.epoch,
                    }
                )
                continue
            if stats.arrivals != expected_arrivals:
                flags.append(
                    {
                        "epoch": epoch,
                        "kind": "counter-mismatch",
                        "claimed_arrivals": stats.arrivals,
                        "ingress_arrivals": expected_arrivals,
                    }
                )
                continue
            window = stats
        if not delivered:
            flags.append({"epoch": epoch, "kind": "lost"})
        self._offered_seen = self.engine.offered
        return window, flags

    # -- crash restart -----------------------------------------------------

    def _restart(self, epoch: int) -> None:
        """Rebuild all control state from the journal + engine ground truth."""
        engine = self.engine
        boundary = engine.now
        self.channel.swap_detector(
            Detector.resume(engine, self.tenants, boundary, epoch)
        )
        self._offered_seen = engine.offered
        lost = len(self.verifier._pending)
        self.verifier = Verifier()
        self._verdict_cursor = 0
        frozen = max(
            (int(rec.get("frozen_until", -1)) for rec in self.journal),
            default=-1,
        )
        self.verifier._frozen_until = frozen
        planner = self._new_planner()
        planner.notify_batcher(
            engine.batch_policy.max_batch, engine.batch_policy.max_wait_ms
        )
        for rec in self.journal:
            for act in rec.get("actions", ()):
                kind = act.get("kind")
                if kind in ("scale-up", "scale-down", "replace", "rollback"):
                    planner._last_scale_epoch = int(rec["epoch"])
                    if act.get("target") is not None:
                        planner._last_target = int(act["target"])
                if kind == "retune":
                    planner._last_retune_epoch = int(rec["epoch"])
                if kind == "drain" and act.get("replica") is not None:
                    planner._drained.add(int(act["replica"]))
                if kind == "replace" and act.get("replica") is not None:
                    planner._replaced.add(int(act["replica"]))
                if kind == "replan" and act.get("replica") is not None:
                    planner._replanned.add(int(act["replica"]))
        self.planner = planner
        self.safe = SafeModeController(self.safe_policy)
        self.safe.replay(
            [
                (int(rec["epoch"]), int(rec.get("control_faults", 0)))
                for rec in self.journal
                if not rec.get("outage")
            ]
        )
        self.tracker = RecoveryTracker(RECOVERY_DEADLINE_EPOCHS)
        snapshots = [
            rec["recovery"] for rec in self.journal if "recovery" in rec
        ]
        if snapshots:
            self.tracker.restore(snapshots[-1])
        self.restarts.append(
            {
                "epoch": epoch,
                "journal_epochs": len(self.journal),
                "expectations_lost": lost,
                "frozen_until": frozen,
            }
        )

    # -- the run -----------------------------------------------------------

    def run(
        self,
        requests: Sequence[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]] = None,
        data_faults: Optional[FaultSchedule] = None,
    ) -> ControlReport:
        """Serve ``requests`` under closed-loop control.

        ``data_faults`` are armed on the engine before the first epoch
        (a ``slow`` :class:`~repro.serve.failover.ReplicaFault` is the
        gray-failure stimulus for the drain/repair path); the loop runs
        ``ceil(duration / epoch_s)`` epochs, then drains.
        """
        check_real(duration_s, "duration", gt=0)
        with phase("control_run"):
            return self._run(requests, duration_s, extra_meta, data_faults)

    def _run(
        self,
        requests: Sequence[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]],
        data_faults: Optional[FaultSchedule],
    ) -> ControlReport:
        engine = self.engine
        policy = self.autoscale
        if data_faults is not None and not data_faults.is_empty:
            apply_fault_schedule(engine, data_faults, self.config)
        engine.ingest(requests)
        self.planner.notify_batcher(
            engine.batch_policy.max_batch, engine.batch_policy.max_wait_ms
        )
        n_epochs = int(math.ceil(duration_s / policy.epoch_s - 1e-9))
        for k in range(n_epochs):
            t_end = min((k + 1) * policy.epoch_s, duration_s)
            crash = self._crash_by_epoch.get(k)
            if crash is not None and not self._down:
                self._down = True
                self._down_until = k + crash.down_epochs
                self.crash_events.append(
                    {
                        "epoch": k,
                        "down_epochs": crash.down_epochs,
                        "expectations_lost": len(self.verifier._pending),
                        "journal_epochs": len(self.journal),
                    }
                )
            restarted = False
            if self._down and k >= self._down_until and self.healing.enabled:
                self._restart(k)
                self._down = False
                restarted = True
            if self._down:
                # outage: the fleet keeps serving, nobody is steering
                engine.advance_to(t_end)
                self.journal.append(
                    {
                        "epoch": k,
                        "outage": True,
                        "fleet_size": engine.n_active(),
                    }
                )
                continue
            engine.advance_to(t_end)
            feedback = self.verifier.check(engine, k)
            new_verdicts = self.verifier.verdicts[self._verdict_cursor :]
            self._verdict_cursor = len(self.verifier.verdicts)
            self.all_verdicts.extend(new_verdicts)
            delivered = self.channel.deliver(t_end)
            if self.healing.enabled:
                window, telemetry_flags = self._validate_telemetry(
                    delivered, k, t_end
                )
            else:
                # the unguarded loop trusts whatever arrived last
                window = delivered[-1] if delivered else None
                telemetry_flags = []
                self._offered_seen = engine.offered
            probe = probe_fleet(engine, self.planner.replaced, engine.now)
            failed_verdicts = sum(
                1 for v in new_verdicts if v["status"] == "failed"
            )
            fault_count = (
                len(telemetry_flags) + failed_verdicts + (1 if restarted else 0)
            )
            safe_active = self.safe.update(k, fault_count)
            breach = window is not None and (
                window.slo_p95_frac > policy.high_band or window.shed > 0
            )
            causes: List[str] = []
            if probe.crashed_unreplaced:
                causes.append("replica-crash")
            if probe.degraded_pending:
                causes.append("pe-degrade")
            if window is not None and window.shed > 0:
                causes.append("shed")
            if telemetry_flags:
                causes.append("telemetry")
            if failed_verdicts:
                causes.append("actuation")
            healthy = (
                window is not None
                and not breach
                and not telemetry_flags
                and not failed_verdicts
                and not probe.crashed_unreplaced
                and not probe.degraded_pending
                and not safe_active
            )
            rollback_due = self.tracker.note(
                k,
                healthy,
                causes,
                engine.n_active(),
                engine.batch_policy.max_batch,
                engine.batch_policy.max_wait_ms,
            )
            rollback_to = (
                self.tracker.lkg
                if rollback_due and self.healing.enabled and self.tracker.lkg
                else None
            )
            actions = self.planner.plan_epoch(
                window,
                feedback,
                probe,
                k,
                t_end,
                safe_active=safe_active,
                rollback_to=rollback_to,
            )
            applied = self.actuator.apply(actions, epoch=k)
            self.verifier.register(applied, k)
            for app in applied:
                if "lost" in app.note:
                    continue  # the command never reached the engine
                if app.action.kind in ("retune", "rollback") and (
                    app.action.max_batch is not None
                ):
                    self.planner.notify_batcher(
                        app.action.max_batch, app.action.max_wait_ms
                    )
            self.journal.append(
                {
                    "epoch": k,
                    "window": window.to_dict() if window is not None else None,
                    "delivered_epochs": [s.epoch for s in delivered],
                    "telemetry_faults": telemetry_flags,
                    "probe": probe.to_dict(),
                    "actions": [app.to_dict() for app in applied],
                    "verdicts": new_verdicts,
                    "control_faults": fault_count,
                    "safe_mode": safe_active,
                    "frozen": k <= feedback.frozen_until_epoch,
                    "frozen_until": self.verifier._frozen_until,
                    "fleet_size": engine.n_active(),
                    "max_batch": engine.batch_policy.max_batch,
                    "recovery": self.tracker.to_dict(),
                }
            )
        report = engine.finish(duration_s, extra_meta)
        final_feedback = self.verifier.check(engine, n_epochs)
        self.all_verdicts.extend(self.verifier.verdicts[self._verdict_cursor :])
        summary = dict(report.summary)
        action_counts: Dict[str, int] = {}
        for rec in self.journal:
            for act in rec.get("actions", ()):
                action_counts[act["kind"]] = action_counts.get(act["kind"], 0) + 1
        verdict_counts: Dict[str, int] = {}
        for verdict in self.all_verdicts:
            verdict_counts[verdict["status"]] = (
                verdict_counts.get(verdict["status"], 0) + 1
            )
        summary["control"] = {
            "policy": policy.to_dict(),
            "verifier": Verifier.settings(),
            "epochs": self.journal,
            "n_epochs": n_epochs,
            "actions_by_kind": dict(sorted(action_counts.items())),
            "verdicts": self.all_verdicts,
            "verdicts_by_status": dict(sorted(verdict_counts.items())),
            "freezes": self.verifier.freezes,
            "unresolved_expectations": len(final_feedback.failed_kinds),
        }
        summary["healing"] = {
            "policy": self.healing.to_dict(),
            "safe_mode": self.safe_policy.to_dict(),
            "control_faults": self.control_faults.to_dict(),
            "telemetry_injected": self.channel.injected,
            "actuation_injected": self.actuator.injected,
            "crash_events": self.crash_events,
            "restarts": self.restarts,
            "safe_mode_intervals": self.safe.intervals,
            "telemetry_flags": sum(
                len(rec.get("telemetry_faults", ()))
                for rec in self.journal
            ),
            "recovery": self.tracker.to_dict(),
            "placements": self.planner.placements,
        }
        return ControlReport(summary=summary, serving=report, epochs=self.journal)
