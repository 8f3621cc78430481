"""The verifier: closes the loop behind the actuator.

Two jobs, both fed back into the planner:

* **action verification** — every applied action registers an expectation
  (fleet size reached, replica actually retired, batcher knobs live) with
  a deadline of :data:`VERIFY_DEADLINE_EPOCHS`.  At each epoch boundary the
  verifier resolves expectations against the engine's real state; an
  expectation that misses its deadline is reported as *failed* (and the
  planner sees the failure kinds in its feedback).  In this simulator
  actuation is synchronous so failures indicate a control-plane bug — the
  check is the point: the loop never *assumes* an action took effect;
* **oscillation guard** — scale direction flips (up followed by down or
  vice versa) inside a sliding window of epochs are counted; at
  :data:`MAX_FLIPS` the verifier freezes scaling for
  :data:`FREEZE_EPOCHS` via :class:`~repro.control.policy.PlannerFeedback`.
  A policy whose bands are mis-tuned then degrades to a static fleet
  instead of thrashing chips on every epoch.

The verdict log (confirmed/failed, epochs waited, freezes) is part of the
decisions log and byte-stable across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.serve.engine import AdaptiveServingEngine
from repro.control.actuator import AppliedAction
from repro.control.policy import PlannerFeedback

__all__ = ["Verifier", "Expectation"]


#: epochs an action may take to become visible in the fleet state
VERIFY_DEADLINE_EPOCHS = 1
#: scale-direction flips within :data:`OSCILLATION_WINDOW` epochs that
#: trip the oscillation guard
MAX_FLIPS = 3
OSCILLATION_WINDOW = 8
#: epochs scaling stays frozen once the guard trips
FREEZE_EPOCHS = 6


@dataclass
class Expectation:
    """One applied action's postcondition, pending until resolved."""

    kind: str
    registered_epoch: int
    deadline_epoch: int
    #: fleet-size actions: expected active count
    target: Optional[int] = None
    #: drain actions: rid that must be retired
    replica: Optional[int] = None
    #: retune actions: expected live knobs
    max_batch: Optional[int] = None

    def satisfied(self, engine: AdaptiveServingEngine) -> bool:
        if self.kind in ("scale-up", "scale-down"):
            return engine.n_active() == self.target
        if self.kind == "drain":
            state = next(
                (r for r in engine.replicas if r.rid == self.replica), None
            )
            return state is None or not state.active
        if self.kind == "retune":
            return engine.batch_policy.max_batch == self.max_batch
        if self.kind in ("replace", "rollback"):
            # healing actions restoring a fleet shape (repro.control.healing)
            if (
                self.kind == "rollback"
                and self.max_batch is not None
                and engine.batch_policy.max_batch != self.max_batch
            ):
                return False
            return engine.n_active() == self.target
        if self.kind == "replan":
            state = next(
                (r for r in engine.replicas if r.rid == self.replica), None
            )
            return bool(
                state is not None
                and state.degraded
                and state.degraded.get("replanned")
            )
        return False


class Verifier:
    """Resolves expectations and guards against oscillation."""

    def __init__(self) -> None:
        self._pending: List[Expectation] = []
        #: (epoch, +1 for up / -1 for down) scale-direction history
        self._directions: List[tuple] = []
        self._frozen_until = -1
        #: resolved verdicts, in resolution order (part of the decisions log)
        self.verdicts: List[Dict[str, object]] = []
        self.freezes: List[Dict[str, object]] = []

    @staticmethod
    def settings() -> Dict[str, object]:
        """The deadline and oscillation-guard constants, for the decisions log."""
        return {
            "verify_deadline_epochs": VERIFY_DEADLINE_EPOCHS,
            "max_flips": MAX_FLIPS,
            "oscillation_window": OSCILLATION_WINDOW,
            "freeze_epochs": FREEZE_EPOCHS,
        }

    def register(self, applied: Sequence[AppliedAction], epoch: int) -> None:
        """Turn applied actions into pending expectations."""
        for app in applied:
            action = app.action
            expectation = Expectation(
                kind=action.kind,
                registered_epoch=epoch,
                deadline_epoch=epoch + VERIFY_DEADLINE_EPOCHS,
            )
            if action.kind in ("scale-up", "scale-down"):
                self._directions.append(
                    (epoch, 1 if action.kind == "scale-up" else -1)
                )
                if app.clipped:
                    continue  # fleet bounds clipped it; no exact target holds
                expectation.target = action.target
            elif action.kind == "drain":
                if app.clipped:
                    continue  # nothing to verify; replica was already gone
                expectation.replica = action.replica
            elif action.kind == "retune":
                expectation.max_batch = action.max_batch
            elif action.kind in ("replace", "rollback"):
                # repairs restore a known shape; they are not load-driven
                # scale decisions, so they never feed the oscillation guard
                if app.clipped:
                    continue
                expectation.target = action.target
                if action.kind == "rollback":
                    expectation.max_batch = action.max_batch
            elif action.kind == "replan":
                if app.clipped:
                    continue
                expectation.replica = action.replica
            self._pending.append(expectation)

    def check(self, engine: AdaptiveServingEngine, epoch: int) -> PlannerFeedback:
        """Resolve pending expectations; return the planner's feedback."""
        failed_kinds: List[str] = []
        still_pending: List[Expectation] = []
        for exp in self._pending:
            if exp.satisfied(engine):
                self.verdicts.append(
                    {
                        "kind": exp.kind,
                        "epoch": exp.registered_epoch,
                        "status": "confirmed",
                        "epochs_waited": epoch - exp.registered_epoch,
                    }
                )
            elif epoch > exp.deadline_epoch:
                self.verdicts.append(
                    {
                        "kind": exp.kind,
                        "epoch": exp.registered_epoch,
                        "status": "failed",
                        "epochs_waited": epoch - exp.registered_epoch,
                    }
                )
                failed_kinds.append(exp.kind)
            else:
                still_pending.append(exp)
        self._pending = still_pending

        # oscillation guard over the recent direction history
        window_start = epoch - OSCILLATION_WINDOW
        recent = [d for d in self._directions if d[0] > window_start]
        self._directions = recent
        flips = sum(
            1
            for a, b in zip(recent, recent[1:])
            if a[1] != b[1]
        )
        if flips >= MAX_FLIPS and epoch > self._frozen_until:
            self._frozen_until = epoch + FREEZE_EPOCHS
            self.freezes.append(
                {
                    "epoch": epoch,
                    "until_epoch": self._frozen_until,
                    "flips": flips,
                }
            )
        return PlannerFeedback(
            frozen_until_epoch=self._frozen_until,
            failed_kinds=sorted(failed_kinds),
        )
