"""Fault models: seeded, deterministic fault schedules.

A :class:`FaultSchedule` bundles everything that can go wrong with a
deployment into one validated, serializable object:

* **replica faults** — :class:`~repro.serve.failover.ReplicaFault`
  fail-stop crashes and fail-slow windows, served as a failover run of
  :class:`~repro.serve.engine.ServingEngine`;
* **link faults** — :class:`LinkFault` degradation windows on the
  inter-chip :class:`~repro.cluster.link.LinkSpec` (a *flap* is just a
  periodic train of short windows, see :func:`flapping_link`);
* **PE mask** — :class:`PEMask`, rows/columns of the PE array fused off,
  from which :mod:`repro.resilience.degrade` derives a degraded
  :class:`~repro.arch.config.AcceleratorConfig` and re-runs Algorithm 2;
* **bit flips** — :class:`BitFlipFault`, single-bit silent data corruption
  in the activation buffer, weight buffer, partial-sum accumulator, or the
  stored (post-quantization) output, executed against the functional
  datapath by :class:`repro.integrity.sdc.SDCInjector` and guarded by the ABFT
  checksums of :mod:`repro.integrity.abft`;
* **serving-tier SDC windows** — :class:`~repro.serve.verified.SDCFault`,
  a window during which one replica's batches are silently corrupted,
  served in the same failover run, checked when a
  :class:`~repro.serve.verified.VerificationPolicy` is in force.

Schedules are either written explicitly or drawn from
:meth:`FaultSchedule.seeded` — a :class:`random.Random` seeded explicitly,
so the same seed always produces the identical schedule and everything
downstream (the chaos runner, the benchmark) is bit-deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ConfigError,
    check_choice,
    check_count,
    check_counts,
    check_real,
)
from repro.serve.failover import ReplicaFault
from repro.serve.verified import SDCFault

__all__ = [
    "PEMask",
    "LinkFault",
    "MaskFault",
    "BitFlipFault",
    "BITFLIP_SITES",
    "FaultSchedule",
    "flapping_link",
    "seeded_bitflips",
    "ReplicaFault",
    "SDCFault",
]

#: datapath sites a bit flip can land in (see docs/integrity.md)
BITFLIP_SITES = ("activation", "weight", "psum", "output")


@dataclass(frozen=True)
class BitFlipFault:
    """One silent single-bit flip in the functional datapath.

    ``site`` names the storage the flip lands in:

    * ``activation`` — an element of the input tensor in the data buffer;
    * ``weight`` — an element of the weight tensor in the weight buffer;
    * ``psum`` — an element of the partial-sum accumulator, struck after
      accumulation step ``step`` (a sub-kernel piece for the partition
      path, a kernel element for the improved-inter path);
    * ``output`` — an element of the stored output, after the final write.

    ``index`` addresses the element (flat, row-major, reduced modulo the
    target's size at injection time so one fault family works across layer
    geometries); ``bit`` is the bit position flipped within the stored
    word.  Execution is performed by :class:`repro.integrity.sdc.SDCInjector`.
    """

    site: str
    index: int
    bit: int
    step: int = 0

    def __post_init__(self) -> None:
        check_choice(self.site, "bit-flip site", BITFLIP_SITES)
        check_counts(self, "index", "bit", "step", owner="bit-flip ")
        if self.bit > 63:
            raise ConfigError(f"bit-flip bit must be < 64, got {self.bit!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "index": self.index,
            "bit": self.bit,
            "step": self.step,
        }


def seeded_bitflips(
    seed: int,
    count: int,
    sites: Tuple[str, ...] = BITFLIP_SITES,
    word_bits: int = 16,
    psum_bits: int = 24,
    max_index: int = 1 << 20,
    max_step: int = 16,
) -> Tuple[BitFlipFault, ...]:
    """Draw a deterministic family of single-bit flips from one seed.

    Sites are visited round-robin so every requested site gets even
    coverage; indices/bits/steps come from one :class:`random.Random`
    stream, so the same seed always produces the identical family.
    ``psum`` flips may land anywhere in the wide accumulator's low
    ``psum_bits`` bits; the storage sites stay within ``word_bits``.
    """
    count = check_count(count, "bit-flip count")
    if not sites:
        raise ConfigError("seeded_bitflips needs at least one site")
    for site in sites:
        check_choice(site, "bit-flip site", BITFLIP_SITES)
    rng = random.Random(seed)
    flips = []
    for i in range(count):
        site = sites[i % len(sites)]
        bits = psum_bits if site == "psum" else word_bits
        flips.append(
            BitFlipFault(
                site=site,
                index=rng.randrange(max_index),
                bit=rng.randrange(bits),
                step=rng.randrange(max_step),
            )
        )
    return tuple(flips)


@dataclass(frozen=True)
class PEMask:
    """Rows/columns of the PE array masked off (fused away after a defect).

    The computation engine is a ``Tin x Tout`` multiplier array feeding
    ``Tout`` adder trees: masking a *column* removes one input lane
    (effective ``Tin`` shrinks), masking a *row* removes one adder tree
    (effective ``Tout`` shrinks) — exactly the geometry change a narrow
    conv1 presents, which is why Algorithm 2 re-plans rather than fails.
    """

    masked_cols: int = 0
    masked_rows: int = 0

    def __post_init__(self) -> None:
        check_counts(self, "masked_cols", "masked_rows")

    @property
    def is_noop(self) -> bool:
        return self.masked_cols == 0 and self.masked_rows == 0

    def to_dict(self) -> Dict[str, int]:
        return {"masked_cols": self.masked_cols, "masked_rows": self.masked_rows}


@dataclass(frozen=True)
class LinkFault:
    """One inter-chip link degradation window.

    During ``[time_s, time_s + duration_s)`` the link runs at
    ``LinkSpec.degraded(factor)`` — bandwidth divided and hop latency
    multiplied by ``factor``.
    """

    time_s: float
    factor: float
    duration_s: float

    def __post_init__(self) -> None:
        # an infinite time is left to FaultSchedule, which names the entry
        check_real(self.time_s, "link fault time", ge=0, finite=False)
        check_real(self.factor, "link degrade factor", ge=1)
        check_real(self.duration_s, "link fault duration", gt=0)

    @property
    def end_s(self) -> float:
        return self.time_s + self.duration_s

    def to_dict(self) -> Dict[str, float]:
        return {
            "time_ms": round(self.time_s * 1e3, 6),
            "factor": round(self.factor, 6),
            "duration_ms": round(self.duration_s * 1e3, 6),
        }


def flapping_link(
    start_s: float,
    period_s: float,
    down_fraction: float,
    factor: float,
    flaps: int,
) -> Tuple[LinkFault, ...]:
    """A flapping link: ``flaps`` periodic degradation windows.

    Each period of ``period_s`` seconds starts with a degraded window
    lasting ``down_fraction`` of the period at ``factor``× worse link
    parameters — the classic symptom of a renegotiating PHY.
    """
    check_real(start_s, "flap start", ge=0)
    check_real(period_s, "flap period", gt=0)
    check_real(down_fraction, "down_fraction", gt=0, lt=1)
    flaps = check_count(flaps, "flap count", 1)
    return tuple(
        LinkFault(
            time_s=start_s + k * period_s,
            factor=factor,
            duration_s=down_fraction * period_s,
        )
        for k in range(flaps)
    )


@dataclass(frozen=True)
class MaskFault:
    """A timed partial PE failure landing on one serving replica.

    At ``time_s`` the replica's array loses ``mask``'s rows/columns (the
    hardware self-reports it, like a machine check).  Until the control
    plane replans through Algorithm 2 the replica serves its healthy
    schedule on fewer lanes — the naive proportional slowdown — which is
    exactly the gap :func:`repro.resilience.degrade.replan_degraded`
    closes.  The static :attr:`FaultSchedule.pe_mask` field models a chip
    that *starts* degraded; a ``MaskFault`` models one that degrades
    mid-run under a live controller.
    """

    time_s: float
    replica: int
    mask: PEMask

    def __post_init__(self) -> None:
        check_real(self.time_s, "mask fault time", ge=0)
        check_counts(self, "replica", owner="mask fault ")
        if not isinstance(self.mask, PEMask):
            raise ConfigError(
                f"mask fault needs a PEMask, got {type(self.mask).__name__}"
            )
        if self.mask.is_noop:
            raise ConfigError("mask fault needs a non-noop PEMask")

    def to_dict(self) -> Dict[str, object]:
        return {
            "time_ms": round(self.time_s * 1e3, 6),
            "replica": self.replica,
            "mask": self.mask.to_dict(),
        }


def _entry_label(fault: object) -> str:
    """Human-readable identity of one schedule entry for error messages."""
    kind = getattr(fault, "kind", type(fault).__name__)
    target = getattr(fault, "replica", None)
    at = getattr(fault, "time_s", None)
    where = f" on replica {target}" if target is not None else ""
    return f"{kind}{where} at t={at!r}s"


def _check_entries(kind: str, faults, key) -> None:
    """Finite, non-negative times and no duplicate (time, target) entries.

    Mirrors the ``trace_arrivals`` style: the error names the offending
    entry (its index in time-sorted order) so a generated schedule can be
    traced straight back to its source.
    """
    seen: Dict[object, int] = {}
    for n, fault in enumerate(faults):
        t = fault.time_s
        if math.isnan(t) or math.isinf(t) or t < 0:
            raise ConfigError(
                f"{kind}: non-finite or negative fault time {t!r} "
                f"({_entry_label(fault)}, entry {n})"
            )
        k = key(fault)
        if k in seen:
            raise ConfigError(
                f"{kind}: duplicate fault {_entry_label(fault)} "
                f"(entries {seen[k]} and {n} share time and target)"
            )
        seen[k] = n


@dataclass(frozen=True)
class FaultSchedule:
    """Everything injected into one chaos run, validated and serializable."""

    replica_faults: Tuple[ReplicaFault, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    pe_mask: Optional[PEMask] = None
    sdc_faults: Tuple[SDCFault, ...] = ()
    seed: Optional[int] = field(default=None)
    #: timed per-replica PE masks (the self-healing control scenarios)
    mask_faults: Tuple[MaskFault, ...] = ()

    def __post_init__(self) -> None:
        # normalize to deterministic order regardless of construction order
        object.__setattr__(
            self,
            "replica_faults",
            tuple(
                sorted(self.replica_faults, key=lambda f: (f.time_s, f.replica))
            ),
        )
        object.__setattr__(
            self,
            "link_faults",
            tuple(sorted(self.link_faults, key=lambda f: f.time_s)),
        )
        object.__setattr__(
            self,
            "sdc_faults",
            tuple(sorted(self.sdc_faults, key=lambda f: (f.time_s, f.replica))),
        )
        object.__setattr__(
            self,
            "mask_faults",
            tuple(sorted(self.mask_faults, key=lambda f: (f.time_s, f.replica))),
        )
        # two crashes of one replica at one instant (or two identical link
        # windows) are always a schedule-generation bug; reject them with
        # the offending entry named rather than silently double-applying
        _check_entries(
            "replica_faults",
            self.replica_faults,
            key=lambda f: (f.time_s, f.replica),
        )
        _check_entries("link_faults", self.link_faults, key=lambda f: f.time_s)
        _check_entries(
            "sdc_faults", self.sdc_faults, key=lambda f: (f.time_s, f.replica)
        )
        _check_entries(
            "mask_faults", self.mask_faults, key=lambda f: (f.time_s, f.replica)
        )

    @property
    def crashes(self) -> Tuple[ReplicaFault, ...]:
        return tuple(f for f in self.replica_faults if f.kind == "crash")

    @property
    def slowdowns(self) -> Tuple[ReplicaFault, ...]:
        return tuple(f for f in self.replica_faults if f.kind == "slow")

    @property
    def is_empty(self) -> bool:
        return (
            not self.replica_faults
            and not self.link_faults
            and not self.sdc_faults
            and not self.mask_faults
            and (self.pe_mask is None or self.pe_mask.is_noop)
        )

    def first_crash_s(self) -> Optional[float]:
        crashes = self.crashes
        return crashes[0].time_s if crashes else None

    def validate_for(self, n_replicas: int) -> None:
        """Reject faults targeting replicas the deployment does not have."""
        for fault in self.replica_faults:
            if fault.replica >= n_replicas:
                raise ConfigError(
                    f"fault targets replica {fault.replica} but the "
                    f"deployment has only {n_replicas} replicas"
                )
        for sdc in self.sdc_faults:
            if sdc.replica >= n_replicas:
                raise ConfigError(
                    f"SDC fault targets replica {sdc.replica} but the "
                    f"deployment has only {n_replicas} replicas"
                )
        for mask in self.mask_faults:
            if mask.replica >= n_replicas:
                raise ConfigError(
                    f"mask fault targets replica {mask.replica} but the "
                    f"deployment has only {n_replicas} replicas"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "replica_faults": [f.to_dict() for f in self.replica_faults],
            "link_faults": [f.to_dict() for f in self.link_faults],
            "sdc_faults": [f.to_dict() for f in self.sdc_faults],
            "pe_mask": self.pe_mask.to_dict() if self.pe_mask else None,
            "mask_faults": [f.to_dict() for f in self.mask_faults],
        }

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_replicas: int,
        duration_s: float,
        crashes: int = 1,
        slowdowns: int = 0,
        slow_factor_range: Tuple[float, float] = (2.0, 8.0),
        slow_duration_s: float = 1.0,
        link_flaps: int = 0,
        link_factor: float = 4.0,
    ) -> "FaultSchedule":
        """Draw a deterministic random schedule from one explicit seed.

        Fault times land in the middle 60% of the run (``[0.2, 0.8) *
        duration``) so the healthy steady state is observable on both
        sides.  Crashes pick distinct replicas; slowdowns pick any replica
        not already crashed before the slowdown starts.
        """
        if crashes + slowdowns > 0 and n_replicas <= 0:
            raise ConfigError("seeded schedule needs at least one replica")
        if crashes > n_replicas:
            raise ConfigError(
                f"cannot crash {crashes} of {n_replicas} replicas"
            )
        check_real(duration_s, "duration", gt=0)
        rng = random.Random(seed)

        def mid_time() -> float:
            return (0.2 + 0.6 * rng.random()) * duration_s

        replica_faults: List[ReplicaFault] = []
        crash_rids = rng.sample(range(n_replicas), crashes)
        crash_at: Dict[int, float] = {}
        for rid in crash_rids:
            t = mid_time()
            crash_at[rid] = t
            replica_faults.append(ReplicaFault("crash", rid, t))
        for _ in range(slowdowns):
            rid = rng.randrange(n_replicas)
            t = mid_time()
            if rid in crash_at and crash_at[rid] <= t:
                continue  # already dead; drawing again would bias the rng
            lo, hi = slow_factor_range
            replica_faults.append(
                ReplicaFault(
                    "slow",
                    rid,
                    t,
                    factor=round(lo + (hi - lo) * rng.random(), 3),
                    duration_s=slow_duration_s,
                )
            )
        link_faults: Tuple[LinkFault, ...] = ()
        if link_flaps:
            period = 0.6 * duration_s / link_flaps
            link_faults = flapping_link(
                start_s=0.2 * duration_s,
                period_s=period,
                down_fraction=0.4,
                factor=link_factor,
                flaps=link_flaps,
            )
        return cls(
            replica_faults=tuple(replica_faults),
            link_faults=link_faults,
            seed=seed,
        )
