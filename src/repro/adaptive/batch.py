"""Batched inference — amortizing weight traffic across images.

The paper evaluates single-image forward propagation, where batch-1 FC
layers are hopelessly DMA-bound (AlexNet's fc6 alone streams 37.7 M weight
words).  The classical fix — shared by DianNao-era accelerators and every
deployment stack since — is batching: keep a weight tile resident and run
``B`` images through it before fetching the next.

This module derives a batched plan from the single-image plan:

* compute, activation traffic and partial-sum traffic scale with ``B``;
* weight *DMA* happens once per batch (the weight working set is reused
  from the on-chip buffer for the other ``B - 1`` images);
* per-image wall-clock keeps the same compute/stream overlap rule.

The result quantifies the crossover: conv layers barely care (they were
compute-bound already), FC layers approach their compute bound as ``B``
grows — which is why ``throughput(B)`` saturates once the FC weight
streams are fully hidden.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.arch.config import AcceleratorConfig
from repro.errors import check_count
from repro.nn.network import Network
from repro.perf.instrument import phase
from repro.schemes.base import FrozenDict, ScheduleResult
from repro.sim.trace import NetworkRun

__all__ = ["BatchRun", "batch_layer", "plan_batch"]


#: the row's counts that grow with the batch: all but the weight fills
_PER_IMAGE = (
    "operations", "useful_macs", "extra_adds", "input_loads", "input_stores",
    "output_loads", "output_stores", "weight_loads", "bias_loads",
)


def batch_layer(result: ScheduleResult, batch_size: int) -> ScheduleResult:
    """Scale one layer's single-image schedule to a batch.

    Weight buffer fills (and their DRAM words) stay at the single-image
    amount; everything image-linked multiplies by ``batch_size``.
    """
    batch_size = check_count(batch_size, "batch size", 1)
    if batch_size == 1:
        return result
    b, row = batch_size, result.costs
    # weights are fetched from DRAM once per batch
    dram_words = (row.dram_words - row.weight_stores) * b + row.weight_stores
    costs = row._replace(
        **{name: getattr(row, name) * b for name in _PER_IMAGE},
        dram_words=dram_words,
        dma_cycles=dram_words / result.config.dram_words_per_cycle,
        reshape_cycles=row.reshape_cycles * b,
        notes=FrozenDict(row.notes, batch_size=b),
    )
    return dataclasses.replace(result, costs=costs)


@dataclass
class BatchRun:
    """A batched network run with throughput helpers."""

    run: NetworkRun
    batch_size: int

    @property
    def total_cycles(self) -> float:
        return self.run.total_cycles

    @property
    def cycles_per_image(self) -> float:
        return self.run.total_cycles / self.batch_size

    def images_per_second(self) -> float:
        seconds = self.run.config.cycles_to_seconds(self.run.total_cycles)
        return self.batch_size / seconds

    def latency_ms(self) -> float:
        """Wall-clock of the whole batch (the latency an image can see)."""
        return self.run.milliseconds()


def plan_batch(
    net: Network,
    config: AcceleratorConfig,
    policy: str = "adaptive-2",
    batch_size: int = 1,
    include_non_conv: bool = True,
) -> BatchRun:
    """Plan ``net`` for a batch of images.

    Defaults to including the non-conv layers, since FC amortization is
    the point of batching.  The underlying single-image plan goes through
    the schedule cache, so sizing a batch sweep (many batch sizes, one
    geometry set) schedules each layer only once.
    """
    from repro.adaptive.planner import plan_network

    batch_size = check_count(batch_size, "batch size", 1)
    with phase("plan_batch"):
        single = plan_network(net, config, policy, include_non_conv=include_non_conv)
        batched = NetworkRun(
            network_name=net.name,
            policy=f"{policy}@batch{batch_size}",
            config=config,
            input_reorder_words=single.input_reorder_words * batch_size,
        )
        layers: List[ScheduleResult] = [
            batch_layer(r, batch_size) for r in single.layers
        ]
        for layer in layers:
            batched.append(layer)
        return BatchRun(run=batched, batch_size=batch_size)
