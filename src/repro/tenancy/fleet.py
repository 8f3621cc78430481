"""Heterogeneous fleet modelling: chip classes, counts, costs, slots.

A real deployment rarely buys one SKU: it mixes big chips, small chips,
chips degraded by PE masks, and — with :mod:`repro.tenancy.partition` —
chips carved into co-resident sub-accelerators.  A :class:`FleetSpec`
describes such a mix as a list of :class:`ChipSpec` entries and flattens
it into *slots*: independently-schedulable accelerator instances, each
carrying the config it runs, the physical chip it lives on, and its share
of that chip.  An unpartitioned chip is one whole-chip slot; a
partitioned chip is one slot per partition, all sharing a chip id (so
the serving layer charges the chip once).

``cost_weight`` normalises fleets for equal-budget comparisons: it
defaults to the chip's multiplier count over the 16-16 reference's 256,
so a 32-32 chip costs 4 reference chips and "equal chip-seconds" means
equal ``sum(weight x duration)`` across fleets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig, named_config
from repro.errors import ConfigError, check_counts, check_real
from repro.tenancy.partition import PartitionSpec, partition_chip

__all__ = [
    "REFERENCE_MULTIPLIERS",
    "ChipSpec",
    "Slot",
    "FleetSpec",
    "parse_fleet",
]

#: the 16-16 reference array; a chip's default cost is multipliers / 256
REFERENCE_MULTIPLIERS = 256


@dataclass(frozen=True)
class ChipSpec:
    """``count`` identical chips of one class, optionally partitioned."""

    name: str
    config: AcceleratorConfig
    count: int = 1
    cost_weight: Optional[float] = None
    partitions: Tuple[PartitionSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("chip class needs a non-empty name")
        owner = f"chip class {self.name!r}: "
        check_counts(self, "count", minimum=1, owner=owner)
        if self.cost_weight is not None:
            check_real(self.cost_weight, owner + "cost_weight", gt=0)

    @property
    def weight(self) -> float:
        """Cost of one chip of this class, in 16-16 reference chips."""
        if self.cost_weight is not None:
            return self.cost_weight
        return self.config.multipliers / REFERENCE_MULTIPLIERS

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "geometry": self.config.name,
            "count": self.count,
            "weight": round(self.weight, 6),
        }
        if self.partitions:
            out["partitions"] = [p.to_dict() for p in self.partitions]
        return out


@dataclass(frozen=True)
class Slot:
    """One independently-schedulable accelerator instance in a fleet."""

    slot_id: int
    chip_id: str
    chip_class: str
    config: AcceleratorConfig
    share: float
    chip_weight: float
    partition: str = ""

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "slot": self.slot_id,
            "chip": self.chip_id,
            "class": self.chip_class,
            "geometry": self.config.name,
            "share": round(self.share, 6),
        }
        if self.partition:
            out["partition"] = self.partition
        return out


@dataclass(frozen=True)
class FleetSpec:
    """A named composition of chip classes."""

    name: str
    chips: Tuple[ChipSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("fleet needs a non-empty name")
        if not self.chips:
            raise ConfigError(
                f"fleet {self.name!r} needs at least one chip class"
            )
        seen = set()
        for chip in self.chips:
            if chip.name in seen:
                raise ConfigError(
                    f"fleet {self.name!r}: duplicate chip class {chip.name!r}"
                )
            seen.add(chip.name)

    def slots(self) -> List[Slot]:
        """Flatten to schedulable slots, deterministic order.

        Chip classes in declaration order, instances in index order,
        partitions in spec order — so slot ids are reproducible and the
        placer and serving layer agree on what slot 3 means.
        """
        out: List[Slot] = []
        for chip in self.chips:
            if chip.partitions:
                subs = partition_chip(chip.config, chip.partitions)
            else:
                subs = None
            for idx in range(chip.count):
                chip_id = f"{chip.name}{idx}"
                if subs is None:
                    out.append(
                        Slot(
                            slot_id=len(out),
                            chip_id=chip_id,
                            chip_class=chip.name,
                            config=chip.config,
                            share=1.0,
                            chip_weight=chip.weight,
                        )
                    )
                else:
                    for sub in subs:
                        out.append(
                            Slot(
                                slot_id=len(out),
                                chip_id=chip_id,
                                chip_class=chip.name,
                                config=sub.config,
                                share=sub.share,
                                chip_weight=chip.weight,
                                partition=sub.name,
                            )
                        )
        return out

    def total_weight(self) -> float:
        """Fleet cost in 16-16 reference chips (chips counted once)."""
        return sum(chip.weight * chip.count for chip in self.chips)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "chips": [c.to_dict() for c in self.chips],
            "total_weight": round(self.total_weight(), 6),
            "slots": [s.to_dict() for s in self.slots()],
        }


def parse_fleet(spec: str, name: str = "fleet") -> FleetSpec:
    """Parse ``"big:32-32:1,small:16-16:4"`` into a :class:`FleetSpec`.

    Each comma-separated entry is ``class:Tin-Tout[:count]`` (count
    defaults to 1).  Partitioned chips cannot be expressed in the string
    form; build :class:`ChipSpec` with ``partitions=`` directly.
    """
    chips: List[ChipSpec] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"bad fleet entry {entry!r}; expected 'class:Tin-Tout[:count]'"
            )
        cls, geometry = parts[0], parts[1]
        try:
            count = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ConfigError(
                f"bad chip count {parts[2]!r} in fleet entry {entry!r}"
            ) from None
        chips.append(
            ChipSpec(name=cls, config=named_config(geometry), count=count)
        )
    return FleetSpec(name=name, chips=tuple(chips))
