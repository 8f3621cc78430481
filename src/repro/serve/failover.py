"""Failover serving: the fault records, policy and constants.

:class:`~repro.serve.engine.AdaptiveServingEngine` serves under *injected
replica faults* whose in-flight work can be lost, once
:meth:`~repro.serve.engine.AdaptiveServingEngine.arm_failover` arms them
(:class:`~repro.serve.engine.ServingEngine` does so from its fault
inputs).  This module holds what those runs are made of:

* :class:`ReplicaFault` — **fail-stop** (a replica crashes at a scheduled
  instant and never returns; work in flight on it, and anything
  dispatched to it before the failure is noticed, is lost, detected and
  retried on the survivors) or **fail-slow** (a replica's service times
  multiply by ``factor`` for a window, the gray failure that silently
  destroys tail latency);
* the health checker's constants: a probe every :data:`DETECT_INTERVAL_S`
  marks a crashed replica ``down`` at the first tick after the crash
  (:func:`detection_time`), and a completion whose service time reaches
  :data:`SLOW_THRESHOLD` times the expected one marks its replica
  ``slow``.  Routing skips ``down`` replicas and least-loaded
  deprioritizes ``slow`` ones;
* the recovery rules: requests lost to a crash re-enter the queue after
  a capped exponential backoff (:func:`backoff_s`) while the retry
  budget :data:`MAX_RETRIES` lasts, and otherwise fail *with a reason*
  (:data:`FAILED_RETRIES`, or :data:`FAILED_NO_REPLICAS` once no replica
  is left), so ``offered == completed + shed + failed`` always holds;
* :class:`FailoverPolicy` — whether a batch dispatched to a replica
  marked slow is duplicated onto an idle healthy one; the first finisher
  wins and the loser's occupancy is charged as ``hedge_wasted``.

The *silent* fault the health checker cannot see, a replica corrupting
results while completing on time, comes from :mod:`repro.serve.verified`.
Everything is driven by simulated time only, so a run is a deterministic
function of (workload, faults, policies): the chaos scenarios in
:mod:`repro.resilience.scenarios` rely on that to emit byte-stable JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import check_choice, check_count, check_counts, check_real

__all__ = [
    "ReplicaFault",
    "FailoverPolicy",
    "FAULT_KINDS",
    "FAILED_RETRIES",
    "FAILED_NO_REPLICAS",
    "backoff_s",
    "detection_time",
]

FAULT_KINDS = ("crash", "slow")

#: failure reasons, the keys of the ``failed_by_reason`` breakdown
FAILED_RETRIES = "retries_exhausted"
FAILED_NO_REPLICAS = "no_replicas"


@dataclass(frozen=True)
class ReplicaFault:
    """One scheduled replica fault.

    ``crash`` is fail-stop: permanent from ``time_s`` on (``factor`` and
    ``duration_s`` are ignored).  ``slow`` multiplies the replica's service
    times by ``factor`` for ``duration_s`` seconds starting at ``time_s``.
    """

    kind: str
    replica: int
    time_s: float
    factor: float = 1.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        check_choice(self.kind, "fault kind", FAULT_KINDS)
        check_counts(self, "replica", owner="fault ")
        # an infinite time is left to FaultSchedule, which names the entry
        check_real(self.time_s, "fault time", ge=0, finite=False)
        if self.kind == "slow":
            check_real(self.factor, "slow factor", ge=1)
            # inf (the default) keeps the replica slow for good
            check_real(self.duration_s, "slow duration", gt=0, finite=False)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "replica": self.replica,
            "time_ms": round(self.time_s * 1e3, 6),
        }
        if self.kind == "slow":
            out["factor"] = round(self.factor, 6)
            out["duration_ms"] = (
                "inf"
                if math.isinf(self.duration_s)
                else round(self.duration_s * 1e3, 6)
            )
        return out


#: health probe period; a crash is noticed at the first probe tick
#: strictly after it happens
DETECT_INTERVAL_S = 0.05
#: retry budget per request beyond the first attempt
MAX_RETRIES = 2
#: capped exponential backoff before a retry re-enters the queue
BACKOFF_BASE_MS = 5.0
BACKOFF_CAP_MS = 80.0
#: observed/expected service ratio at which a replica is marked slow
SLOW_THRESHOLD = 1.5


def detection_time(crash_s: float) -> float:
    """The first probe tick strictly after a crash at ``crash_s``."""
    k = math.floor(crash_s / DETECT_INTERVAL_S) + 1
    return k * DETECT_INTERVAL_S


def backoff_s(attempt: int) -> float:
    """Backoff before retry number ``attempt`` (1-based) re-queues."""
    check_count(attempt, "attempt", 1)
    return min(BACKOFF_CAP_MS, BACKOFF_BASE_MS * 2 ** (attempt - 1)) / 1e3


@dataclass(frozen=True)
class FailoverPolicy:
    """Whether the failover tier hedges batches sent to slow replicas."""

    #: duplicate batches dispatched to slow-marked replicas onto a healthy
    #: idle one (first finisher wins)
    hedge: bool = False

    def describe(self) -> str:
        return (
            f"failover(detect={DETECT_INTERVAL_S * 1e3:g}ms, "
            f"retries={MAX_RETRIES}, "
            f"backoff={BACKOFF_BASE_MS:g}..{BACKOFF_CAP_MS:g}ms"
            + (", hedged" if self.hedge else "")
            + ")"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "detect_interval_ms": round(DETECT_INTERVAL_S * 1e3, 6),
            "max_retries": MAX_RETRIES,
            "backoff_base_ms": round(BACKOFF_BASE_MS, 6),
            "backoff_cap_ms": round(BACKOFF_CAP_MS, 6),
            "hedge": self.hedge,
            "slow_threshold": round(SLOW_THRESHOLD, 6),
        }
