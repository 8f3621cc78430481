"""Verified inference: per-batch ABFT checks on the serving tier.

:mod:`repro.integrity.abft` proves the checksum scheme detects and corrects
single bit flips on the *functional* datapath; this module lifts that
guarantee to the *serving* tier, where corruption manifests as batches of
user-visible wrong answers:

* :class:`SDCFault` — a window during which one replica silently corrupts
  a fraction of its batches (a marginal voltage rail, a flaky HBM stack —
  the gray-failure analogue of fail-slow, but for *correctness*);
* :class:`VerificationPolicy` — whether replicas run the ABFT check on
  every batch; the latency overhead of doing so (from the
  :func:`repro.schemes.abft.abft_overhead` cost model), the measured
  detection rate, the detect-and-recompute surcharge, and how many
  detections drain a replica are the module constants
  :data:`LATENCY_OVERHEAD`, :data:`DETECTION_RATE`,
  :data:`RECOMPUTE_OVERHEAD` and :data:`DRAIN_THRESHOLD`;
* :class:`VerifiedReplica` — per-replica corruption bookkeeping: batches
  checked, corruptions detected/corrected/escaped, and when the replica
  was drained.

A failover run of :class:`~repro.serve.engine.ServingEngine` (its
``sdc_faults`` and ``verification`` inputs) consumes all three: a
detected corruption is recomputed on the spot (the batch completes late
but *correct*), repeated detections mark the replica ``slow`` — sticky, so
the health checker does not flip it back to ``up`` — and the router drains
it exactly like a fail-slow replica.  With verification disabled every
corrupted batch escapes, which is the contrast the ``sdc-silent`` chaos
scenario exists to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError, check_counts, check_real

__all__ = ["SDCFault", "VerificationPolicy", "VerifiedReplica"]


@dataclass(frozen=True)
class SDCFault:
    """One silent-data-corruption window on one replica.

    During ``[time_s, time_s + duration_s)`` each batch dispatched to
    ``replica`` is corrupted with probability ``per_batch``, drawn from a
    :class:`random.Random` stream derived from ``seed`` — deterministic in
    dispatch order, so runs are byte-reproducible.
    """

    replica: int
    time_s: float
    duration_s: float
    per_batch: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_counts(self, "replica", owner="SDC fault ")
        # an infinite time is left to FaultSchedule, which names the entry
        check_real(self.time_s, "SDC fault time", ge=0, finite=False)
        check_real(self.duration_s, "SDC fault duration", gt=0)
        check_real(self.per_batch, "SDC per-batch probability", gt=0, le=1)
        check_counts(self, "seed", minimum=None, owner="SDC fault ")

    @property
    def end_s(self) -> float:
        return self.time_s + self.duration_s

    def active_at(self, t: float) -> bool:
        return self.time_s <= t < self.end_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "replica": self.replica,
            "time_ms": round(self.time_s * 1e3, 6),
            "duration_ms": round(self.duration_s * 1e3, 6),
            "per_batch": round(self.per_batch, 6),
            "seed": self.seed,
        }


#: service-time multiplier of the checksum passes (>= 1, from the
#: scheme-level overhead model — see ``repro integrity``)
LATENCY_OVERHEAD = 1.08
#: fraction of corruptions the check catches (the benchmark sweep
#: measures 1.0 for single bit flips)
DETECTION_RATE = 1.0
#: extra service fraction when a detection triggers recompute of the
#: flagged partial maps (cheap: only flagged sub-kernels re-execute)
RECOMPUTE_OVERHEAD = 0.15
#: detections on one replica before it is drained like a fail-slow one
DRAIN_THRESHOLD = 3


@dataclass(frozen=True)
class VerificationPolicy:
    """Whether a serving tier runs the verified-inference check."""

    #: run the ABFT check on every batch (False models an unguarded tier
    #: that still *experiences* SDC windows — everything escapes)
    enabled: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ConfigError(f"enabled must be a bool, got {self.enabled!r}")

    def describe(self) -> str:
        if not self.enabled:
            return "verification(off)"
        return (
            f"verification(overhead={LATENCY_OVERHEAD:g}x, "
            f"detect={DETECTION_RATE:g}, "
            f"recompute=+{RECOMPUTE_OVERHEAD:g}, "
            f"drain@{DRAIN_THRESHOLD})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "latency_overhead": round(LATENCY_OVERHEAD, 6),
            "detection_rate": round(DETECTION_RATE, 6),
            "recompute_overhead": round(RECOMPUTE_OVERHEAD, 6),
            "drain_threshold": DRAIN_THRESHOLD,
        }


@dataclass
class VerifiedReplica:
    """One replica's ABFT bookkeeping: checks run, corruptions, drain state."""

    rid: int
    checked_batches: int = 0
    corrupted_batches: int = 0
    detected: int = 0
    corrected: int = 0
    escaped_batches: int = 0
    escaped_requests: int = 0
    drained_at: Optional[float] = None

    @property
    def drained(self) -> bool:
        return self.drained_at is not None

    def detail(self) -> Dict[str, object]:
        return {
            "rid": self.rid,
            "checked_batches": self.checked_batches,
            "corrupted_batches": self.corrupted_batches,
            "detected": self.detected,
            "corrected": self.corrected,
            "escaped_batches": self.escaped_batches,
            "escaped_requests": self.escaped_requests,
            "drained_ms": round(self.drained_at * 1e3, 6)
            if self.drained_at is not None
            else None,
        }
