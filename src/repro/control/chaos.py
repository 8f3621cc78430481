"""Control-plane chaos: faults in the *controller*, not just the fleet.

The data-plane fault model (:mod:`repro.resilience.faults`) breaks chips;
this module breaks the loop that is supposed to notice.  Three fault
families, all seeded and epoch-addressed so a run stays a deterministic
function of (workload seed, schedules, policies):

* :class:`TelemetryFault` — the detector's window is tampered with in
  flight: ``loss`` delivers an undercounted window (a fraction of the
  records never reached the aggregator), ``stale`` re-delivers the
  previous epoch's window instead of the current one, ``duplicate``
  delivers the previous window *and* the current one.  The
  :class:`TelemetryChannel` sits between the detector and the loop and is
  the only place tampering happens — the engine's ground truth is never
  touched, which is what lets the loop cross-check;
* :class:`ActuationFault` — commands that fail (``fail``: the epoch's
  actions are acknowledged but never reach the engine) or partially apply
  (``partial``: a scale-up lands half its replicas).  The
  :class:`FlakyActuator` wrapper injects these; the verifier's
  expectation checks are what catch them;
* :class:`LoopCrash` — the controller process dies at an epoch boundary,
  stays down for ``down_epochs`` (the fleet keeps serving, frozen), and
  restarts from its decisions journal (see
  :class:`repro.control.healing.SelfHealingControlLoop`).

:class:`SafeModePolicy` is the last line: when detected control-plane
faults inside a sliding window cross a threshold, the loop freezes all
actuation (no scaling, no retune, no repairs) and just keeps serving —
a mis-behaving controller must never be able to shrink a healthy fleet.

:func:`apply_fault_schedule` threads a data-plane
:class:`~repro.resilience.faults.FaultSchedule` through an
:class:`~repro.serve.engine.AdaptiveServingEngine` — crashes armed as
batch-boundary fail-stops, fail-slow windows and timed per-replica PE
masks (with the naive frozen-schedule slowdown until someone replans).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_choice, check_counts, check_real
from repro.resilience.degrade import degraded_config
from repro.resilience.faults import FaultSchedule
from repro.serve.engine import AdaptiveServingEngine
from repro.control.actuator import Actuator, AppliedAction
from repro.control.policy import Action
from repro.control.telemetry import Detector, WindowStats

__all__ = [
    "TELEMETRY_FAULT_KINDS",
    "ACTUATION_FAULT_MODES",
    "TelemetryFault",
    "ActuationFault",
    "LoopCrash",
    "ControlFaultSchedule",
    "TelemetryChannel",
    "FlakyActuator",
    "SafeModePolicy",
    "SafeModeController",
    "naive_mask_factor",
    "check_armable",
    "apply_fault_schedule",
]

TELEMETRY_FAULT_KINDS = ("loss", "stale", "duplicate")
ACTUATION_FAULT_MODES = ("fail", "partial")


@dataclass(frozen=True)
class TelemetryFault:
    """One tampered telemetry delivery, addressed by control epoch."""

    kind: str
    epoch: int
    #: ``loss`` only: fraction of the window's records that never arrive
    drop_frac: float = 0.5

    def __post_init__(self) -> None:
        check_choice(self.kind, "telemetry fault kind", TELEMETRY_FAULT_KINDS)
        # stale/duplicate replay the *previous* window, so epoch 0 has
        # nothing to replay — require at least one observed window
        check_counts(
            self,
            "epoch",
            minimum=0 if self.kind == "loss" else 1,
            owner=f"telemetry {self.kind!r} ",
        )
        check_real(self.drop_frac, "telemetry drop_frac", gt=0, lt=1)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "epoch": self.epoch}
        if self.kind == "loss":
            out["drop_frac"] = round(self.drop_frac, 6)
        return out


@dataclass(frozen=True)
class ActuationFault:
    """One epoch whose actions fail or partially apply."""

    epoch: int
    mode: str = "fail"

    def __post_init__(self) -> None:
        check_counts(self, "epoch", owner="actuation fault ")
        check_choice(self.mode, "actuation fault mode", ACTUATION_FAULT_MODES)

    def to_dict(self) -> Dict[str, object]:
        return {"epoch": self.epoch, "mode": self.mode}


@dataclass(frozen=True)
class LoopCrash:
    """The controller dies at ``epoch`` and is down for ``down_epochs``.

    During the outage the fleet keeps serving at its last shape (nobody
    scales, nobody repairs); at ``epoch + down_epochs`` the loop restarts
    and must resume from its decisions journal.
    """

    epoch: int
    down_epochs: int = 1

    def __post_init__(self) -> None:
        check_counts(self, "epoch", minimum=1, owner="loop crash ")
        check_counts(self, "down_epochs", owner="loop crash ")

    def to_dict(self) -> Dict[str, object]:
        return {"epoch": self.epoch, "down_epochs": self.down_epochs}


@dataclass(frozen=True)
class ControlFaultSchedule:
    """Everything injected into the control plane of one run."""

    telemetry: Tuple[TelemetryFault, ...] = ()
    actuation: Tuple[ActuationFault, ...] = ()
    crashes: Tuple[LoopCrash, ...] = ()
    seed: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        if self.seed is not None:
            check_counts(self, "seed", minimum=None, owner="control fault ")
        object.__setattr__(
            self,
            "telemetry",
            tuple(sorted(self.telemetry, key=lambda f: (f.epoch, f.kind))),
        )
        object.__setattr__(
            self, "actuation", tuple(sorted(self.actuation, key=lambda f: f.epoch))
        )
        object.__setattr__(
            self, "crashes", tuple(sorted(self.crashes, key=lambda f: f.epoch))
        )
        for label, faults in (
            ("telemetry", self.telemetry),
            ("actuation", self.actuation),
            ("crashes", self.crashes),
        ):
            seen: Dict[int, int] = {}
            for n, fault in enumerate(faults):
                if fault.epoch in seen:
                    raise ConfigError(
                        f"{label}: duplicate fault at epoch {fault.epoch} "
                        f"(entries {seen[fault.epoch]} and {n})"
                    )
                seen[fault.epoch] = n

    @property
    def is_empty(self) -> bool:
        return not self.telemetry and not self.actuation and not self.crashes

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "telemetry": [f.to_dict() for f in self.telemetry],
            "actuation": [f.to_dict() for f in self.actuation],
            "crashes": [f.to_dict() for f in self.crashes],
        }


# -- telemetry tampering -----------------------------------------------------


def _degrade_stats(stats: WindowStats, drop_frac: float) -> WindowStats:
    """A lossy copy of one window: a fraction of records never arrived."""
    keep = 1.0 - drop_frac
    arrivals = int(stats.arrivals * keep)
    completed = int(stats.completed * keep)
    span = stats.end_s - stats.start_s
    return dataclasses.replace(
        stats,
        arrivals=arrivals,
        completed=completed,
        shed=int(stats.shed * keep),
        deadline_met=min(stats.deadline_met, completed),
        shed_rate=(int(stats.shed * keep) / arrivals) if arrivals else 0.0,
        arrival_rate_rps=arrivals / span if span else 0.0,
    )


class TelemetryChannel:
    """The delivery path between the detector and the loop.

    All tampering happens here: the detector always observes the true
    window (its internal cursors must stay exact), and the channel decides
    what the *loop* receives for that epoch.  ``deliver`` returns a list —
    an empty list models a wholly lost delivery, two entries model a
    duplicate — and the loop's consistency checks decide what to trust.
    """

    def __init__(
        self,
        detector: Detector,
        faults: Sequence[TelemetryFault] = (),
    ) -> None:
        self.detector = detector
        self._by_epoch: Dict[int, TelemetryFault] = {}
        for fault in faults:
            self._by_epoch[fault.epoch] = fault
        #: true windows in epoch order (the replay source for stale/dup)
        self._history: List[WindowStats] = []
        #: (epoch, kind) of every fault actually exercised
        self.injected: List[Dict[str, object]] = []

    def swap_detector(self, detector: Detector) -> None:
        """A restarted loop plugs its resumed detector back in."""
        self.detector = detector

    def deliver(self, t_end: float) -> List[WindowStats]:
        real = self.detector.observe(t_end)
        self._history.append(real)
        fault = self._by_epoch.get(real.epoch)
        if fault is None:
            return [real]
        self.injected.append({"epoch": real.epoch, "kind": fault.kind})
        if fault.kind == "loss":
            return [_degrade_stats(real, fault.drop_frac)]
        if len(self._history) < 2:
            return [real]  # nothing to replay yet; delivery is clean
        previous = self._history[-2]
        if fault.kind == "stale":
            return [previous]
        return [previous, real]  # duplicate


# -- actuation tampering -----------------------------------------------------


class FlakyActuator:
    """Wraps an actuator; on faulted epochs commands fail or half-apply.

    The returned :class:`AppliedAction` records always carry the *original*
    action (never the weakened one that actually ran), so the verifier's
    expectation is the intended state — under-actuation surfaces as a
    failed verification, which is the loop's detection path.
    """

    def __init__(
        self,
        inner: Actuator,
        faults: Sequence[ActuationFault] = (),
    ) -> None:
        self.inner = inner
        self._by_epoch: Dict[int, ActuationFault] = {}
        for fault in faults:
            self._by_epoch[fault.epoch] = fault
        self.injected: List[Dict[str, object]] = []

    @property
    def engine(self) -> AdaptiveServingEngine:
        return self.inner.engine

    def apply(self, actions: Sequence[Action], epoch: int) -> List[AppliedAction]:
        fault = self._by_epoch.get(epoch)
        if fault is None or not actions:
            return self.inner.apply(actions)
        self.injected.append({"epoch": epoch, "mode": fault.mode})
        if fault.mode == "fail":
            return [
                AppliedAction(action, note="actuation-fault: command lost")
                for action in actions
            ]
        applied: List[AppliedAction] = []
        for action in actions:
            weakened = self._weaken(action)
            if weakened is None:
                applied.append(
                    AppliedAction(action, note="actuation-fault: command lost")
                )
                continue
            inner_applied = self.inner.apply([weakened])[0]
            applied.append(
                AppliedAction(
                    action,
                    added=inner_applied.added,
                    drained=inner_applied.drained,
                    clipped=inner_applied.clipped,
                    note="actuation-fault: partial",
                )
            )
        return applied

    def _weaken(self, action: Action) -> Optional[Action]:
        """Partial mode: scale/replace lands half; anything else is lost."""
        if action.kind in ("scale-up", "replace") and action.target is not None:
            active = self.engine.n_active()
            need = action.target - active
            if need > 1:
                return dataclasses.replace(action, target=active + need // 2)
            return action  # a single add cannot half-apply
        return None


# -- safe mode ---------------------------------------------------------------


@dataclass(frozen=True)
class SafeModePolicy:
    """Freeze actuation when the control plane itself is misbehaving."""

    enabled: bool = True
    #: detected control-plane faults inside the window that trip safe mode
    fault_threshold: int = 3
    window_epochs: int = 6
    #: consecutive fault-free epochs required to leave safe mode
    clean_epochs: int = 4

    def __post_init__(self) -> None:
        check_counts(
            self,
            "fault_threshold",
            "window_epochs",
            "clean_epochs",
            minimum=1,
            owner="safe-mode ",
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "fault_threshold": self.fault_threshold,
            "window_epochs": self.window_epochs,
            "clean_epochs": self.clean_epochs,
        }


class SafeModeController:
    """Sliding-window counter of detected control-plane faults."""

    def __init__(self, policy: SafeModePolicy) -> None:
        self.policy = policy
        self.active = False
        self._events: List[Tuple[int, int]] = []
        self._clean = 0
        self.intervals: List[Dict[str, object]] = []

    def update(self, epoch: int, fault_count: int) -> bool:
        """Record this epoch's detected faults; returns the active flag."""
        if not self.policy.enabled:
            return False
        self._events.append((epoch, fault_count))
        window_total = sum(
            count
            for e, count in self._events
            if e > epoch - self.policy.window_epochs
        )
        if not self.active:
            if window_total >= self.policy.fault_threshold:
                self.active = True
                self._clean = 0
                self.intervals.append(
                    {
                        "entered_epoch": epoch,
                        "exited_epoch": None,
                        "window_faults": window_total,
                    }
                )
        else:
            self._clean = self._clean + 1 if fault_count == 0 else 0
            if self._clean >= self.policy.clean_epochs:
                self.active = False
                self.intervals[-1]["exited_epoch"] = epoch
        return self.active

    def replay(self, records: Sequence[Tuple[int, int]]) -> None:
        """Rebuild state from journaled (epoch, fault_count) pairs."""
        for epoch, count in records:
            self.update(epoch, count)


# -- data-plane schedule → engine -------------------------------------------


def naive_mask_factor(config: AcceleratorConfig, masked_cols: int, masked_rows: int) -> float:
    """Proportional slowdown of the healthy schedule on a masked array.

    Freezing the healthy schedule and running it on ``(Tin - cols) x
    (Tout - rows)`` lanes costs the full-array work spread over the
    survivors — the bound Algorithm 2's replan beats whenever the network
    was not saturating the lanes the mask removed (a narrow conv1 loses
    nothing to a column mask once replanned; see ``docs/resilience.md``).
    """
    from repro.resilience.faults import PEMask

    degraded = degraded_config(config, PEMask(masked_cols, masked_rows))
    return (config.tin * config.tout) / (degraded.tin * degraded.tout)


def check_armable(schedule: FaultSchedule) -> None:
    """Refuse fault kinds :func:`apply_fault_schedule` cannot arm.

    Link faults need an inter-chip pipeline to price and SDC windows need
    the verified-inference tier, both of which the chaos runner's failover
    runs have (:func:`repro.resilience.scenarios.run_scenario`); a static
    ``pe_mask`` degrades every replica from t=0, which the control
    scenarios express as timed ``mask_faults`` instead.
    """
    unsupported = []
    if schedule.link_faults:
        unsupported.append("link_faults")
    if schedule.sdc_faults:
        unsupported.append("sdc_faults")
    if schedule.pe_mask is not None and not schedule.pe_mask.is_noop:
        unsupported.append("pe_mask")
    if unsupported:
        raise ConfigError(
            f"the control loop cannot arm {' or '.join(unsupported)}; "
            f"price link faults and serve SDC windows through "
            f"repro.resilience.scenarios, and express PE masks as timed "
            f"mask_faults"
        )


def apply_fault_schedule(
    engine: AdaptiveServingEngine,
    schedule: FaultSchedule,
    config: AcceleratorConfig,
) -> None:
    """Arm a data-plane fault schedule on a live adaptive engine.

    * crashes → :meth:`~AdaptiveServingEngine.schedule_crash` (batch-
      boundary fail-stop, applied at the exact fault instant mid-epoch);
    * fail-slow → :meth:`~AdaptiveServingEngine.set_slow` windows;
    * timed PE masks → :meth:`~AdaptiveServingEngine.mark_degraded` at the
      naive frozen-schedule factor (the control plane replans later).

    Link faults, SDC windows and a static ``pe_mask`` have no
    adaptive-engine analogue; :func:`check_armable` refuses them.
    """
    check_armable(schedule)
    schedule.validate_for(len(engine.replicas))
    for fault in schedule.replica_faults:
        if fault.kind == "crash":
            engine.schedule_crash(fault.replica, fault.time_s, reason="fault-schedule")
        else:
            end = fault.time_s + fault.duration_s
            engine.set_slow(fault.replica, fault.factor, fault.time_s, end)
    for mask_fault in schedule.mask_faults:
        factor = naive_mask_factor(
            config, mask_fault.mask.masked_cols, mask_fault.mask.masked_rows
        )
        engine.mark_degraded(
            mask_fault.replica,
            mask_fault.mask.masked_cols,
            mask_fault.mask.masked_rows,
            factor,
            mask_fault.time_s,
        )
