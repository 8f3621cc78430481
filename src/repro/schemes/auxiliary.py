"""Schedules for the non-convolutional layers (pooling, FC, LRN, ReLU).

The paper evaluates convolution only ("convolution ... typically makes 90%
of the computational workload"), and all paper-parity experiments in this
repository do the same.  A downstream user planning a real deployment still
wants the other 10% accounted for, so this module schedules the remaining
layer types on the same hardware:

* **pooling** — windows are reduced on the adder trees (max via compare
  trees of the same depth): ``Tin`` window elements per lane-cycle,
  ``Tout`` channels in parallel;
* **fully connected** — a degenerate inter-kernel convolution (one output
  "pixel"): weights stream once, ``Tin``-wide dot products into ``Tout``
  accumulators.  FC layers are entirely weight-bound, so they are almost
  always DMA-limited — which is the classical reason accelerators batch
  them;
* **LRN** — runs on the activation-function unit at one element per cycle;
* **ReLU** — fused into the store path, zero cycles.

``plan_network(..., include_non_conv=True)`` appends these records to the
run; each is the one row of the layer's cost table.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.layers import (
    ConcatLayer,
    EltwiseAddLayer,
    FCLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
)
from repro.nn.network import LayerContext
from repro.schemes.base import Costs, ScheduleResult

__all__ = ["auxiliary_costs", "schedule_auxiliary"]


def _costs(config, operations, macs, dram_words, input_loads=0, input_stores=0,
           output_loads=0, output_stores=0, weight_loads=0, weight_stores=0,
           bias_loads=0) -> Costs:
    return Costs(
        operations, macs, 0, input_loads, input_stores, output_loads,
        output_stores, weight_loads, weight_stores, bias_loads,
        dram_words, dram_words / config.dram_words_per_cycle,
    )


def _pool(ctx: LayerContext, config: AcceleratorConfig) -> Costs:
    layer: PoolLayer = ctx.layer
    window = layer.kernel * layer.kernel
    out_pixels = ctx.out_shape.height * ctx.out_shape.width
    operations = (
        out_pixels
        * math.ceil(window / config.tin)
        * math.ceil(ctx.out_shape.depth / config.tout)
    )
    input_loads = out_pixels * window * ctx.out_shape.depth
    dram = ctx.in_shape.elements + ctx.out_shape.elements
    # pooling performs reductions, not MACs
    return _costs(
        config, operations, 0, dram,
        input_loads=input_loads, input_stores=ctx.in_shape.elements,
        output_loads=ctx.out_shape.elements, output_stores=ctx.out_shape.elements,
    )


def _fc(ctx: LayerContext, config: AcceleratorConfig) -> Costs:
    layer: FCLayer = ctx.layer
    in_words = ctx.in_shape.elements
    out_words = layer.out_features
    operations = math.ceil(in_words / config.tin) * math.ceil(
        out_words / config.tout
    )
    macs = in_words * out_words
    weight_words = macs + (out_words if layer.bias else 0)
    dram = in_words + weight_words + out_words
    return _costs(
        config, operations, macs, dram,
        input_loads=in_words * math.ceil(out_words / config.tout),
        input_stores=in_words, output_loads=out_words, output_stores=out_words,
        weight_loads=macs, weight_stores=weight_words,
        bias_loads=out_words if layer.bias else 0,
    )


def _elementwise(ctx: LayerContext, config: AcceleratorConfig, per_element: int) -> Costs:
    elements = ctx.out_shape.elements
    return _costs(
        config, elements * per_element, 0, 0,
        input_loads=ctx.in_shape.elements if per_element else 0,
        output_stores=elements if per_element else 0,
    )


def auxiliary_costs(
    ctx: LayerContext, config: AcceleratorConfig
) -> Tuple[str, Costs]:
    """A non-conv layer's scheme name and costs; raises :class:`ScheduleError`,
    with a text that does not name the layer, for any other layer."""
    layer = ctx.layer
    if isinstance(layer, PoolLayer):
        return "aux-pool", _pool(ctx, config)
    if isinstance(layer, FCLayer):
        return "aux-fc", _fc(ctx, config)
    if isinstance(layer, LRNLayer):
        # one element per cycle through the activation-function unit
        return "aux-lrn", _elementwise(ctx, config, 1)
    if isinstance(layer, ReLULayer):
        # fused into the preceding layer's store path
        return "aux-relu", _elementwise(ctx, config, 0)
    if isinstance(layer, ConcatLayer):
        # pure wiring: the planner's layout handoff makes it free
        return "aux-concat", _elementwise(ctx, config, 0)
    if isinstance(layer, EltwiseAddLayer):
        # one add per element on the accumulate adder group
        return "aux-add", _elementwise(ctx, config, 1)
    raise ScheduleError(
        f"auxiliary scheduler does not handle {type(layer).__name__} "
        "(conv layers use the parallelization schemes)"
    )


def schedule_auxiliary(
    ctx: LayerContext, config: AcceleratorConfig
) -> ScheduleResult:
    """Cost a non-conv layer; raises :class:`ScheduleError` for conv layers.

    The view over a fresh (uncached) cost table.
    """
    from repro.schemes.table import CostTable  # the table imports this module

    return CostTable(ctx, config).auxiliary(ctx, config)
