"""The planner: a deterministic autoscaling policy with hysteresis.

Given one :class:`~repro.control.telemetry.WindowStats` per epoch, the
:class:`Planner` decides at most a handful of :class:`Action` records —
scale the fleet, retune the batcher, or drain-and-replace an unhealthy
replica.  The same adaptive insight as the paper's Algorithm 2, one level
up: instead of freezing one fleet configuration for the whole run, pick
the configuration that fits the *current* traffic window.

Design rules that keep the loop stable and bit-deterministic:

* **hysteresis bands** — scale up when the worst tenant's windowed p95
  exceeds ``high_band`` of its SLO (or anything is shed, or the queue
  backs up); scale down only when p95 is below ``low_band`` *and* fleet
  utilization is below :data:`LOW_UTIL`.  The gap between the bands is the
  dead zone where the planner does nothing;
* **demand sizing** — a breach does not creep up one replica per epoch:
  the planner jumps straight to ``ceil(arrival_rate / per-replica
  capacity * (1 + headroom))``, with per-replica capacity costed via
  :func:`repro.adaptive.batch.plan_batch` through the schedule cache
  (the :class:`~repro.serve.batcher.BatchCoster` memo), so a flash crowd
  is answered in one decision;
* **cooldowns** — after a scale action the planner holds for
  ``cooldown_epochs`` (scale-ups may still *raise* the target during
  cooldown; shrinking waits), and the verifier can freeze scaling
  entirely when it sees oscillation;
* **drain/repair** — a replica whose observed/expected service ratio has
  been at or above the failover health checker's
  :data:`~repro.serve.failover.SLOW_THRESHOLD` for :data:`SLOW_EPOCHS`
  consecutive windows (with at least :data:`MIN_HEALTH_BATCHES` batches
  observed) is drained and replaced one-for-one;
* **batch retune** — the planner picks the largest candidate batch whose
  costed service time plus expected fill time fits inside
  :data:`BATCH_SLO_FRAC` of the tightest SLO at the current per-replica
  arrival rate, so the batcher tracks the traffic level instead of being
  frozen at construction.

Every decision depends only on (policy, windows, fleet state), so the
decisions log is a pure function of the workload seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError, check_choice, check_counts, check_real
from repro.serve.batcher import BatchCoster, mix_image_seconds
from repro.serve.failover import SLOW_THRESHOLD
from repro.control.telemetry import WindowStats

__all__ = [
    "Action",
    "AutoscalePolicy",
    "Planner",
    "PlannerFeedback",
    "ACTION_KINDS",
    "BATCH_CANDIDATES",
]

ACTION_KINDS = (
    "scale-up",
    "scale-down",
    "retune",
    "drain",
    # healing actions (repro.control.healing): replace a crashed replica,
    # replan a PE-degraded one through Algorithm 2, roll the fleet back to
    # its last-known-good shape after a missed recovery deadline
    "replace",
    "replan",
    "rollback",
)

#: batch sizes the retune rule may pick from
BATCH_CANDIDATES = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class Action:
    """One planner decision, applied by the actuator at an epoch boundary."""

    kind: str
    epoch: int
    time_s: float
    reason: str
    #: fleet size target for scale actions
    target: Optional[int] = None
    #: replica to retire for drain actions
    replica: Optional[int] = None
    #: new batching knobs for retune actions
    max_batch: Optional[int] = None
    max_wait_ms: Optional[float] = None
    #: chip the replacement replica should land on (replace actions placed
    #: through :func:`repro.tenancy.place_tenants`)
    chip: Optional[str] = None

    def __post_init__(self) -> None:
        check_choice(self.kind, "action kind", ACTION_KINDS)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "epoch": self.epoch,
            "time_ms": round(self.time_s * 1e3, 6),
            "reason": self.reason,
        }
        if self.target is not None:
            out["target"] = self.target
        if self.replica is not None:
            out["replica"] = self.replica
        if self.max_batch is not None:
            out["max_batch"] = self.max_batch
        if self.max_wait_ms is not None:
            out["max_wait_ms"] = round(self.max_wait_ms, 6)
        if self.chip is not None:
            out["chip"] = self.chip
        return out


#: scale-down also needs fleet utilization below this
LOW_UTIL = 0.5
#: any windowed shed rate above this is an immediate breach
SHED_HI = 0.0
#: queued requests per active replica that count as a backlog breach
QUEUE_HI = 32
#: consecutive unhealthy windows before drain/repair triggers
SLOW_EPOCHS = 2
#: minimum observed batches per window for a health verdict
MIN_HEALTH_BATCHES = 1
#: budget for batch service + fill as a fraction of the tightest SLO
BATCH_SLO_FRAC = 0.5
#: epochs between batch retunes
RETUNE_COOLDOWN_EPOCHS = 4


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs of the control loop (see ``docs/autoscaling.md``)."""

    #: control interval in simulated seconds
    epoch_s: float = 2.0
    min_replicas: int = 1
    max_replicas: int = 8
    #: scale-up band: worst tenant windowed p95 over its SLO
    high_band: float = 0.8
    #: scale-down band: only shrink when p95/SLO is below this (and
    #: utilization is below :data:`LOW_UTIL`)
    low_band: float = 0.35
    #: capacity headroom when demand-sizing the fleet (0.25 = +25%)
    headroom: float = 0.25
    #: epochs to hold after a scale action before acting again
    cooldown_epochs: int = 2
    #: retune the batcher (False freezes max-batch/max-wait at construction)
    retune: bool = True

    def __post_init__(self) -> None:
        check_real(self.epoch_s, "epoch_s", gt=0)
        check_counts(self, "min_replicas", "max_replicas", minimum=1)
        check_counts(self, "cooldown_epochs")
        if self.max_replicas < self.min_replicas:
            raise ConfigError(
                f"max_replicas must be >= min_replicas, got "
                f"{self.max_replicas!r} < {self.min_replicas!r}"
            )
        check_real(self.low_band, "low_band", gt=0)
        check_real(self.high_band, "high_band", gt=0)
        if not self.low_band < self.high_band:
            raise ConfigError(
                f"bands must satisfy 0 < low_band < high_band, got "
                f"{self.low_band!r} vs {self.high_band!r}"
            )
        check_real(self.headroom, "headroom", ge=0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch_s": round(self.epoch_s, 6),
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "high_band": round(self.high_band, 6),
            "low_band": round(self.low_band, 6),
            "low_util": round(LOW_UTIL, 6),
            "shed_hi": round(SHED_HI, 6),
            "queue_hi": QUEUE_HI,
            "headroom": round(self.headroom, 6),
            "cooldown_epochs": self.cooldown_epochs,
            "slow_ratio": round(SLOW_THRESHOLD, 6),
            "slow_epochs": SLOW_EPOCHS,
            "retune": self.retune,
            "batch_slo_frac": round(BATCH_SLO_FRAC, 6),
            "retune_cooldown_epochs": RETUNE_COOLDOWN_EPOCHS,
        }


@dataclass
class PlannerFeedback:
    """What the verifier tells the planner before the next decision."""

    #: scaling is frozen through this epoch (oscillation guard)
    frozen_until_epoch: int = -1
    #: kinds of the actions that missed their verification deadline
    failed_kinds: List[str] = field(default_factory=list)


class Planner:
    """Turns windowed telemetry into actions under one policy."""

    def __init__(
        self,
        policy: AutoscalePolicy,
        coster: BatchCoster,
        slo_ms: Dict[str, float],
    ) -> None:
        if not slo_ms:
            raise ConfigError("planner needs at least one tenant SLO")
        self.policy = policy
        self.coster = coster
        self.slo_ms = dict(slo_ms)
        self._last_scale_epoch = -(10**9)
        self._last_retune_epoch = -(10**9)
        self._last_target = 0
        # the loop keeps the planner told about the live batcher config
        self._current_max_batch = 16
        self._current_max_wait_ms = 10.0
        #: rid -> consecutive unhealthy windows
        self._unhealthy_streak: Dict[int, int] = {}
        #: rids already drained (never re-drain)
        self._drained: set = set()

    # -- capacity model ----------------------------------------------------

    def _dominant_network(self, window: WindowStats) -> Optional[str]:
        if not window.network_mix:
            return None
        # highest share wins; name order breaks ties deterministically
        return min(window.network_mix, key=lambda n: (-window.network_mix[n], n))

    def _capacity_rps(self, window: WindowStats, max_batch: int) -> float:
        """Blended per-replica capacity at the window's network mix."""
        if not window.network_mix:
            return 0.0
        # harmonic blend: seconds per request averaged over the mix
        sec_per_req = mix_image_seconds(
            self.coster, sorted(window.network_mix.items()), max_batch
        )
        return 1.0 / sec_per_req if sec_per_req > 0 else 0.0

    def demand_target(self, window: WindowStats, max_batch: int) -> int:
        """Fleet size that serves the window's arrival rate with headroom."""
        capacity = self._capacity_rps(window, max_batch)
        if capacity <= 0:
            return self.policy.min_replicas
        need = window.arrival_rate_rps * (1.0 + self.policy.headroom) / capacity
        return max(self.policy.min_replicas, math.ceil(need - 1e-9))

    # -- the decision ------------------------------------------------------

    def plan(
        self,
        window: WindowStats,
        feedback: Optional[PlannerFeedback] = None,
    ) -> List[Action]:
        feedback = feedback or PlannerFeedback()
        policy = self.policy
        actions: List[Action] = []
        active = window.active_replicas
        max_batch = self._current_max_batch
        epoch = window.epoch
        t = window.end_s

        # -- drain/repair: unhealthy replicas first ---------------------
        for rid, ratio in sorted(window.replica_service_ratio.items()):
            enough = window.replica_batches.get(rid, 0) >= MIN_HEALTH_BATCHES
            if ratio >= SLOW_THRESHOLD and enough:
                self._unhealthy_streak[rid] = self._unhealthy_streak.get(rid, 0) + 1
            else:
                self._unhealthy_streak[rid] = 0
        for rid in sorted(self._unhealthy_streak):
            if rid in self._drained:
                continue
            if self._unhealthy_streak[rid] >= SLOW_EPOCHS:
                self._drained.add(rid)
                actions.append(
                    Action(
                        kind="drain",
                        epoch=epoch,
                        time_s=t,
                        replica=rid,
                        reason=(
                            f"service ratio "
                            f"{window.replica_service_ratio.get(rid, 0.0):.2f} "
                            f">= {SLOW_THRESHOLD:g} for "
                            f"{SLOW_EPOCHS} epochs"
                        ),
                    )
                )
                break  # at most one drain per epoch

        # -- scaling -----------------------------------------------------
        frozen = epoch <= feedback.frozen_until_epoch
        cooling = epoch - self._last_scale_epoch <= policy.cooldown_epochs
        backlog = window.queue_depth > QUEUE_HI * max(1, active)
        breach = (
            window.slo_p95_frac > policy.high_band
            or window.shed_rate > SHED_HI
            or backlog
        )
        calm = (
            window.slo_p95_frac < policy.low_band
            and window.shed_rate == 0.0
            and window.utilization < LOW_UTIL
            and window.queue_depth <= max(1, active)
        )
        if not frozen and breach:
            demand = self.demand_target(window, max_batch)
            target = min(policy.max_replicas, max(active + 1, demand))
            # during cooldown only an *increase* of pressure may act
            if target > active and not (cooling and target <= self._last_target):
                why = []
                if window.slo_p95_frac > policy.high_band:
                    why.append(
                        f"p95 at {window.slo_p95_frac:.2f} of SLO "
                        f"> {policy.high_band:g}"
                    )
                if window.shed_rate > SHED_HI:
                    why.append(f"shed rate {window.shed_rate:.3f}")
                if backlog:
                    why.append(f"queue depth {window.queue_depth}")
                actions.append(
                    Action(
                        kind="scale-up",
                        epoch=epoch,
                        time_s=t,
                        target=target,
                        reason="; ".join(why),
                    )
                )
                self._last_scale_epoch = epoch
                self._last_target = target
        elif not frozen and calm and not cooling and active > policy.min_replicas:
            demand = self.demand_target(window, max_batch)
            target = max(policy.min_replicas, min(active - 1, max(demand, 1)))
            if target < active:
                actions.append(
                    Action(
                        kind="scale-down",
                        epoch=epoch,
                        time_s=t,
                        target=target,
                        reason=(
                            f"p95 at {window.slo_p95_frac:.2f} of SLO "
                            f"< {policy.low_band:g}, utilization "
                            f"{window.utilization:.2f} < {LOW_UTIL:g}"
                        ),
                    )
                )
                self._last_scale_epoch = epoch
                self._last_target = target

        # -- batch retune ------------------------------------------------
        if (
            policy.retune
            and window.completed
            and epoch - self._last_retune_epoch > RETUNE_COOLDOWN_EPOCHS
        ):
            choice = self.retune_batch(window)
            if choice is not None and choice[0] != max_batch:
                new_batch, new_wait = choice
                actions.append(
                    Action(
                        kind="retune",
                        epoch=epoch,
                        time_s=t,
                        max_batch=new_batch,
                        max_wait_ms=new_wait,
                        reason=(
                            f"largest batch fitting "
                            f"{BATCH_SLO_FRAC:g} of the tightest SLO "
                            f"at {window.arrival_rate_rps:.1f} req/s"
                        ),
                    )
                )
                self._last_retune_epoch = epoch
        return actions

    def notify_batcher(self, max_batch: int, max_wait_ms: float) -> None:
        self._current_max_batch = max_batch
        self._current_max_wait_ms = max_wait_ms

    def retune_batch(self, window: WindowStats) -> Optional[tuple]:
        """(max_batch, max_wait_ms) best fitting the window, or ``None``.

        Picks the largest candidate whose costed service time plus expected
        fill time — ``(B-1)`` further arrivals at this replica's share of
        the window rate — stays inside :data:`BATCH_SLO_FRAC` of the
        tightest SLO.  Larger batches amortize the FC weight streams (the
        serving win measured in ``BENCH_serving.json``), so "largest that
        fits" is "cheapest that is safe".
        """
        net = self._dominant_network(window)
        if net is None:
            return None
        slo_s = min(self.slo_ms.values()) / 1e3
        budget = BATCH_SLO_FRAC * slo_s
        per_replica_rate = window.arrival_rate_rps / max(1, window.active_replicas)
        best = None
        for candidate in BATCH_CANDIDATES:
            service = self.coster.batch_seconds(net, candidate)
            fill = (candidate - 1) / per_replica_rate if per_replica_rate > 0 else 0.0
            if service + min(fill, self._current_max_wait_ms / 1e3) <= budget:
                best = candidate
        if best is None:
            best = 1
        wait = min(self._current_max_wait_ms, 0.25 * slo_s * 1e3)
        return best, wait
