"""Batch-sharded data parallelism: N replicas of the whole network.

The dual of the layer pipeline: every chip holds the full network and runs
a slice of the batch.  A step serves a global batch of ``B`` images as

1. **scatter** — the root streams each shard's input images over the link;
2. **compute** — every chip runs its shard (costed by
   :func:`repro.adaptive.batch.plan_batch`, so FC weight amortization is
   per-*shard*, which is exactly why data parallelism loses efficiency on
   FC-heavy networks at small shards);
3. **gather** — each chip returns its shard's output activations.

Scatter and gather serialize over the root's link (one bus, charged on
total bytes); compute is the max over chips, so unequal shards surface as
stragglers.  As ``bandwidth -> inf`` and ``latency -> 0`` the step time
degenerates to the shard compute time and throughput approaches N× a
single chip at the same shard size (asserted in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.arch.config import AcceleratorConfig
from repro.cluster.link import LinkSpec, activation_bytes
from repro.errors import ConfigError, check_count
from repro.nn.network import Network
from repro.perf.instrument import phase

__all__ = ["ChipShard", "DataParallelPlan", "shard_sizes", "plan_data_parallel"]


@dataclass(frozen=True)
class ChipShard:
    """One replica's slice of the global batch."""

    chip: int
    batch: int
    compute_s: float
    scatter_bytes: int
    gather_bytes: int


@dataclass(frozen=True)
class DataParallelPlan:
    """A batch-sharded deployment of one network across N chips."""

    network: str
    config: AcceleratorConfig
    link: LinkSpec
    batch_size: int
    shards: Tuple[ChipShard, ...]
    #: serialized link time for all input / output shards
    scatter_s: float
    gather_s: float
    #: one chip planning the whole batch (the 1-chip reference)
    single_chip_s: float

    @property
    def n_chips(self) -> int:
        return len(self.shards)

    @property
    def compute_s(self) -> float:
        """Straggler compute: the step waits for the largest shard."""
        return max(s.compute_s for s in self.shards)

    @property
    def step_s(self) -> float:
        """Wall-clock of one global batch: scatter, compute, gather."""
        return self.scatter_s + self.compute_s + self.gather_s

    @property
    def throughput_ips(self) -> float:
        return self.batch_size / self.step_s

    @property
    def single_chip_throughput_ips(self) -> float:
        return self.batch_size / self.single_chip_s

    @property
    def speedup(self) -> float:
        """Throughput vs one chip serving the same global batch."""
        return self.single_chip_s / self.step_s

    @property
    def efficiency(self) -> float:
        """Speedup over the ideal N× (1.0 = perfect scaling)."""
        return self.speedup / self.n_chips

    def utilization(self, chip: int) -> float:
        """Busy fraction of one chip over the step."""
        return self.shards[chip].compute_s / self.step_s

    @property
    def link_occupancy(self) -> float:
        """Fraction of the step the shared scatter/gather bus is busy."""
        return (self.scatter_s + self.gather_s) / self.step_s

    def batch_seconds(self, batch_size: int = None) -> float:
        """Wall-clock for one batch (this plan's global batch by default)."""
        if batch_size is not None and batch_size != self.batch_size:
            raise ConfigError(
                f"plan was sized for batch {self.batch_size}, "
                f"asked for {batch_size}; re-plan instead"
            )
        return self.step_s


def shard_sizes(batch_size: int, n_chips: int) -> Tuple[int, ...]:
    """Balanced shards: the first ``batch % n`` chips carry one extra image."""
    batch_size = check_count(batch_size, "batch size", 1)
    n_chips = check_count(n_chips, "chip count", 1)
    base, extra = divmod(batch_size, n_chips)
    return tuple(base + (1 if i < extra else 0) for i in range(n_chips))


def plan_data_parallel(
    net: Network,
    config: AcceleratorConfig,
    n_chips: int,
    link: LinkSpec = LinkSpec(),
    batch_size: int = None,
    policy: str = "adaptive-2",
    include_non_conv: bool = True,
) -> DataParallelPlan:
    """Shard a batch of ``batch_size`` images across ``n_chips`` replicas.

    ``batch_size`` defaults to one image per chip.  Shard plans go through
    :func:`~repro.adaptive.batch.plan_batch` and therefore the schedule
    cache, so sweeping chip counts replans nothing.
    """
    from repro.adaptive.batch import plan_batch

    if batch_size is None:
        batch_size = n_chips
    sizes = shard_sizes(batch_size, n_chips)
    with phase("plan_data_parallel"):
        in_bytes = activation_bytes(net.input_shape, config.word_bytes)
        last_name = [lyr.name for lyr in net][-1]
        out_bytes = activation_bytes(net.shape_of(last_name), config.word_bytes)

        def batch_s(b: int) -> float:
            if b == 0:
                return 0.0
            run = plan_batch(
                net, config, policy, batch_size=b, include_non_conv=include_non_conv
            )
            return config.cycles_to_seconds(run.total_cycles)

        shards = tuple(
            ChipShard(
                chip=i,
                batch=b,
                compute_s=batch_s(b),
                scatter_bytes=b * in_bytes,
                gather_bytes=b * out_bytes,
            )
            for i, b in enumerate(sizes)
        )
        # one serialized bus transaction per non-empty shard
        scatter_s = sum(link.transfer_seconds(s.scatter_bytes) for s in shards)
        gather_s = sum(link.transfer_seconds(s.gather_bytes) for s in shards)
        return DataParallelPlan(
            network=net.name,
            config=config,
            link=link,
            batch_size=batch_size,
            shards=shards,
            scatter_s=scatter_s,
            gather_s=gather_s,
            single_chip_s=batch_s(batch_size),
        )
