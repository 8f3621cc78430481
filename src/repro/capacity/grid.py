"""The what-if search space: deployment candidates and their grid.

A :class:`Candidate` is one concrete deployment the planner can buy and
race: a chip geometry, how many chips, and how those chips are organised —

* ``replicated`` — every chip an independent replica behind one queue;
* ``pipeline`` / ``data-parallel`` — chips sharded in groups of ``group``
  through :class:`~repro.cluster.replica.PipelinedReplica`, one serving
  replica per group (``group == n_chips`` is a single fully-sharded
  deployment; smaller groups give the hybrid: replicas of shards);
* ``partitioned`` — every chip carved into ``split`` equal sub-accelerator
  partitions (:func:`~repro.tenancy.partition.even_partitions`), each an
  independent replica —

plus a dynamic-batching cap.  Candidates are frozen, hashable and built
from plain strings/ints, so they pickle cheaply to worker processes and
name themselves deterministically (:attr:`Candidate.name` is the stable
JSON key).

:class:`CandidateGrid` enumerates the cross product of the axes in one
deterministic order, silently skipping combinations that do not type-check
(a group that does not divide the chip count, a split the PE array cannot
tile) — the grid is declarative, the feasibility rules live here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.arch.config import AcceleratorConfig, named_config
from repro.errors import ConfigError, check_choice, check_counts, check_real
from repro.tenancy.fleet import REFERENCE_MULTIPLIERS
from repro.tenancy.partition import even_partitions

__all__ = ["STRATEGIES", "Candidate", "CandidateGrid"]

STRATEGIES = ("replicated", "pipeline", "data-parallel", "partitioned")


@dataclass(frozen=True)
class Candidate:
    """One concrete deployment: geometry x chips x organisation x batching."""

    geometry: str
    n_chips: int
    strategy: str = "replicated"
    group: int = 1
    split: int = 1
    max_batch: int = 16

    def __post_init__(self) -> None:
        named_config(self.geometry)  # validates the geometry string
        check_choice(self.strategy, "strategy", STRATEGIES)
        check_counts(
            self, "n_chips", "group", "split", "max_batch", minimum=1,
            owner="candidate ",
        )
        if self.strategy in ("pipeline", "data-parallel"):
            if self.group < 2:
                raise ConfigError(
                    f"{self.strategy} candidate needs group >= 2, got {self.group!r}"
                )
            if self.n_chips % self.group:
                raise ConfigError(
                    f"group {self.group} does not divide {self.n_chips} chips"
                )
        elif self.group != 1:
            raise ConfigError(
                f"{self.strategy} candidate must keep group=1, got {self.group!r}"
            )
        if self.strategy == "partitioned":
            if self.split < 2:
                raise ConfigError(
                    f"partitioned candidate needs split >= 2, got {self.split!r}"
                )
            even_partitions(self.config, self.split)  # validates tiling
        elif self.split != 1:
            raise ConfigError(
                f"{self.strategy} candidate must keep split=1, got {self.split!r}"
            )

    @property
    def config(self) -> AcceleratorConfig:
        return named_config(self.geometry)

    @property
    def name(self) -> str:
        """Stable identifier, the key in every planner report."""
        if self.strategy == "partitioned":
            org = f"partitioned/{self.split}"
        elif self.strategy in ("pipeline", "data-parallel"):
            org = f"{self.strategy}/g{self.group}"
        else:
            org = "replicated"
        return f"{self.geometry} x{self.n_chips} {org} b{self.max_batch}"

    @property
    def n_replicas(self) -> int:
        """Independently-schedulable serving replicas this candidate runs."""
        if self.strategy in ("pipeline", "data-parallel"):
            return self.n_chips // self.group
        if self.strategy == "partitioned":
            return self.n_chips * self.split
        return self.n_chips

    @property
    def slot_config(self) -> AcceleratorConfig:
        """The accelerator geometry one serving replica is planned against."""
        if self.strategy == "partitioned":
            spec = even_partitions(self.config, self.split)[0]
            return self.config.partition(spec.tin, spec.tout)
        return self.config

    @property
    def fleet_weight(self) -> float:
        """Fleet cost in 16-16 reference chips (same scale as tenancy)."""
        return self.n_chips * self.config.multipliers / REFERENCE_MULTIPLIERS

    def chip_replica(self, chip: int) -> Tuple[int, ...]:
        """Serving replica ids that die when physical chip ``chip`` dies.

        This is the fault-mapping contract between the chip-level fault
        model and the serving tier: a replicated chip is its own replica;
        a sharded group dies whole with any member chip; a partitioned
        chip takes all its co-resident partitions down with it.
        """
        if not 0 <= chip < self.n_chips:
            raise ConfigError(
                f"chip index {chip!r} out of range for {self.n_chips} chips"
            )
        if self.strategy in ("pipeline", "data-parallel"):
            return (chip // self.group,)
        if self.strategy == "partitioned":
            return tuple(range(chip * self.split, (chip + 1) * self.split))
        return (chip,)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "geometry": self.geometry,
            "n_chips": self.n_chips,
            "strategy": self.strategy,
            "group": self.group,
            "split": self.split,
            "max_batch": self.max_batch,
            "replicas": self.n_replicas,
            "fleet_weight": round(self.fleet_weight, 6),
        }


@dataclass(frozen=True)
class CandidateGrid:
    """Cross product of deployment axes, enumerated deterministically."""

    geometries: Tuple[str, ...] = ("16-16",)
    chip_counts: Tuple[int, ...] = (1, 2, 4)
    strategies: Tuple[str, ...] = ("replicated",)
    groups: Tuple[int, ...] = (2,)
    splits: Tuple[int, ...] = (2,)
    max_batches: Tuple[int, ...] = (16,)
    #: inter-chip bandwidth (GB/s) the sharded strategies cost against
    link_gbs: float = 25.0

    def __post_init__(self) -> None:
        if not self.geometries:
            raise ConfigError("grid needs at least one geometry")
        if not self.chip_counts:
            raise ConfigError("grid needs at least one chip count")
        if not self.strategies:
            raise ConfigError("grid needs at least one strategy")
        if not self.max_batches:
            raise ConfigError("grid needs at least one max_batch")
        for strategy in self.strategies:
            check_choice(strategy, "strategy", STRATEGIES)
        for geometry in self.geometries:
            named_config(geometry)
        # inf is an ideal link, as in LinkSpec
        check_real(self.link_gbs, "link_gbs", gt=0, finite=False)

    def _axis(self, strategy: str) -> Iterator[Tuple[int, int]]:
        """(group, split) choices for one strategy axis."""
        if strategy in ("pipeline", "data-parallel"):
            for group in self.groups:
                yield group, 1
        elif strategy == "partitioned":
            for split in self.splits:
                yield 1, split
        else:
            yield 1, 1

    def enumerate(self) -> List[Candidate]:
        """All well-formed candidates, deduplicated, in axis order.

        Combinations the axes allow but the geometry or chip count cannot
        realise (group not dividing n_chips, PE array not tiling into
        ``split`` strips) are skipped, not errors — the grid is a
        declarative envelope, not a hand-checked list.
        """
        out: List[Candidate] = []
        seen = set()
        for geometry in self.geometries:
            for n_chips in self.chip_counts:
                for strategy in self.strategies:
                    for group, split in self._axis(strategy):
                        for max_batch in self.max_batches:
                            try:
                                candidate = Candidate(
                                    geometry=geometry,
                                    n_chips=n_chips,
                                    strategy=strategy,
                                    group=group,
                                    split=split,
                                    max_batch=max_batch,
                                )
                            except ConfigError:
                                continue
                            if candidate.name in seen:
                                continue
                            seen.add(candidate.name)
                            out.append(candidate)
        if not out:
            raise ConfigError(
                "candidate grid is empty: no axis combination type-checks "
                "(check group vs chip counts and split vs PE geometry)"
            )
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "geometries": list(self.geometries),
            "chip_counts": list(self.chip_counts),
            "strategies": list(self.strategies),
            "groups": list(self.groups),
            "splits": list(self.splits),
            "max_batches": list(self.max_batches),
            "link_gbs": round(self.link_gbs, 6),
            "candidates": len(self.enumerate()),
        }
