"""Static chip partitioning: one PE array carved into sub-accelerators.

The paper sizes one chip for one network; a serving fleet rarely has that
luxury — two tenants with small networks on one big chip either
time-multiplex the whole array (head-of-line blocking across tenants) or
*partition* it.  A :class:`PartitionSpec` names a carve-out of the PE
array plus a share of the SRAM/DMA budget; :func:`partition_chip`
validates that the specs exactly tile the parent chip and derives one
first-class :class:`~repro.arch.config.AcceleratorConfig` per partition
via :meth:`~repro.arch.config.AcceleratorConfig.partition` — the same
derive-a-new-geometry move the resilience layer plays for PE masks, so
Algorithm 2, the planner, and the schedule cache all treat a partition as
just another chip (distinct cache keys by construction).

Validation is strict by design: partitions must use the whole multiplier
budget (no silent dark silicon) and buffer/DMA shares must sum to one.
Errors name the offending partition and the remaining budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_count, check_counts, check_real

__all__ = [
    "PartitionSpec",
    "SubAccelerator",
    "partition_chip",
    "even_partitions",
    "full_chip_spec",
]


@dataclass(frozen=True)
class PartitionSpec:
    """One named carve-out of a chip's PE array and buffer budget.

    ``tin x tout`` multipliers go to this partition; ``buffer_fraction``
    and ``dram_fraction`` are its shares of the SRAM and DMA bandwidth
    (both default to the partition's area fraction of the parent array).
    """

    name: str
    tin: int
    tout: int
    buffer_fraction: Optional[float] = None
    dram_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("partition needs a non-empty name")
        owner = f"partition {self.name!r}: "
        check_counts(self, "tin", "tout", minimum=1, owner=owner)
        for label in ("buffer_fraction", "dram_fraction"):
            frac = getattr(self, label)
            if frac is not None:
                check_real(frac, owner + label, gt=0, le=1)

    @property
    def multipliers(self) -> int:
        return self.tin * self.tout

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "tin": self.tin,
            "tout": self.tout,
        }
        if self.buffer_fraction is not None:
            out["buffer_fraction"] = round(self.buffer_fraction, 6)
        if self.dram_fraction is not None:
            out["dram_fraction"] = round(self.dram_fraction, 6)
        return out


@dataclass(frozen=True)
class SubAccelerator:
    """One partition realised as a derived accelerator config."""

    spec: PartitionSpec
    config: AcceleratorConfig
    parent: AcceleratorConfig

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def share(self) -> float:
        """This partition's fraction of the parent chip's multipliers."""
        return self.spec.multipliers / self.parent.multipliers

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "geometry": self.config.name,
            "share": round(self.share, 6),
            "buffer_kb": round(
                (
                    self.config.input_buffer_bytes
                    + self.config.output_buffer_bytes
                    + self.config.weight_buffer_bytes
                    + self.config.bias_buffer_bytes
                )
                / 1024,
                3,
            ),
        }


def _effective_fraction(spec: PartitionSpec, parent: AcceleratorConfig, which: str) -> float:
    value = getattr(spec, which)
    if value is not None:
        return value
    return spec.multipliers / parent.multipliers


def partition_chip(
    config: AcceleratorConfig, specs: Sequence[PartitionSpec]
) -> Tuple[SubAccelerator, ...]:
    """Carve ``config`` into sub-accelerators according to ``specs``.

    Every validation failure names the offending partition and the budget
    that remained when it was considered (specs are walked in order):

    * partition dims must fit inside the parent array;
    * partition multipliers must *exactly* tile the parent's
      ``tin * tout`` budget — over-subscription and unallocated leftovers
      are both hard errors;
    * explicit buffer/DMA fractions must each sum to 1 across partitions
      (defaults — the area fractions — do so automatically).
    """
    if not specs:
        raise ConfigError("partition_chip needs at least one PartitionSpec")
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise ConfigError(f"duplicate partition name {spec.name!r}")
        seen.add(spec.name)

    budget = config.multipliers
    remaining = budget
    for spec in specs:
        if spec.tin > config.tin:
            raise ConfigError(
                f"partition {spec.name!r} wants tin {spec.tin} but the "
                f"parent chip has tin {config.tin}"
            )
        if spec.tout > config.tout:
            raise ConfigError(
                f"partition {spec.name!r} wants tout {spec.tout} but the "
                f"parent chip has tout {config.tout}"
            )
        if spec.multipliers > remaining:
            raise ConfigError(
                f"partition {spec.name!r} needs {spec.multipliers} "
                f"multipliers but only {remaining} of the parent's "
                f"{budget} remain"
            )
        remaining -= spec.multipliers
    if remaining:
        names = ", ".join(repr(s.name) for s in specs)
        raise ConfigError(
            f"partitions {names} leave {remaining} of {budget} multipliers "
            "unallocated; partitions must tile the parent PE array "
            "(adjust a spec or add a partition for the remainder)"
        )

    for which in ("buffer_fraction", "dram_fraction"):
        total = sum(_effective_fraction(s, config, which) for s in specs)
        if abs(total - 1.0) > 1e-9:
            shares = ", ".join(
                f"{s.name!r}={_effective_fraction(s, config, which):g}"
                for s in specs
            )
            raise ConfigError(
                f"partition {which}s must sum to 1, got {total:g} "
                f"({shares})"
            )

    return tuple(
        SubAccelerator(
            spec=spec,
            config=config.partition(
                spec.tin,
                spec.tout,
                buffer_fraction=_effective_fraction(spec, config, "buffer_fraction"),
                dram_fraction=_effective_fraction(spec, config, "dram_fraction"),
            ),
            parent=config,
        )
        for spec in specs
    )


def even_partitions(config: AcceleratorConfig, n: int) -> List[PartitionSpec]:
    """``n`` equal column strips of the parent array (``tin/n x tout``)."""
    n = check_count(n, "partition count", 1)
    if config.tin % n:
        raise ConfigError(
            f"cannot split tin {config.tin} into {n} equal column strips; "
            f"tin must be divisible by the partition count"
        )
    tin = config.tin // n
    return [PartitionSpec(name=f"p{i}", tin=tin, tout=config.tout) for i in range(n)]


def full_chip_spec(config: AcceleratorConfig) -> PartitionSpec:
    """The degenerate whole-chip partition (bit-identical to the parent)."""
    return PartitionSpec(
        name="whole",
        tin=config.tin,
        tout=config.tout,
        buffer_fraction=1.0,
        dram_fraction=1.0,
    )
