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
run.
"""

from __future__ import annotations

import math

from repro.arch.buffers import AccessCounter
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
from repro.schemes.base import ScheduleResult
from repro.tiling.layout import Layout

__all__ = ["schedule_auxiliary", "supports_auxiliary"]


#: the counter of a buffer the layer never touches (a value, so shared)
_IDLE = AccessCounter()


def supports_auxiliary(ctx: LayerContext) -> bool:
    """Whether :func:`schedule_auxiliary` can cost this layer."""
    return isinstance(
        ctx.layer,
        (PoolLayer, FCLayer, LRNLayer, ReLULayer, ConcatLayer, EltwiseAddLayer),
    )


def _result(ctx, config, name, operations, macs, accesses, dram_words,
            extra_adds=0) -> ScheduleResult:
    return ScheduleResult(
        scheme=name,
        layer_name=ctx.name,
        config=config,
        operations=operations,
        useful_macs=macs,
        extra_adds=extra_adds,
        accesses=accesses,
        dram_words=dram_words,
        dma_cycles=dram_words / config.dram_words_per_cycle,
        input_layout=Layout.INTRA,
        output_layout=Layout.INTRA,
        fit=None,
    )


def _schedule_pool(ctx: LayerContext, config: AcceleratorConfig) -> ScheduleResult:
    layer: PoolLayer = ctx.layer
    window = layer.kernel * layer.kernel
    out_pixels = ctx.out_shape.height * ctx.out_shape.width
    operations = (
        out_pixels
        * math.ceil(window / config.tin)
        * math.ceil(ctx.out_shape.depth / config.tout)
    )
    input_loads = out_pixels * window * ctx.out_shape.depth
    accesses = {
        "input": AccessCounter(input_loads, ctx.in_shape.elements),
        "output": AccessCounter(ctx.out_shape.elements, ctx.out_shape.elements),
        "weight": _IDLE,
        "bias": _IDLE,
    }
    dram = ctx.in_shape.elements + ctx.out_shape.elements
    # pooling performs reductions, not MACs
    return _result(ctx, config, "aux-pool", operations, 0, accesses, dram)


def _schedule_fc(ctx: LayerContext, config: AcceleratorConfig) -> ScheduleResult:
    layer: FCLayer = ctx.layer
    in_words = ctx.in_shape.elements
    out_words = layer.out_features
    operations = math.ceil(in_words / config.tin) * math.ceil(
        out_words / config.tout
    )
    macs = in_words * out_words
    weight_words = macs + (out_words if layer.bias else 0)
    accesses = {
        "input": AccessCounter(in_words * math.ceil(out_words / config.tout), in_words),
        "output": AccessCounter(out_words, out_words),
        "weight": AccessCounter(macs, weight_words),
        "bias": AccessCounter(out_words if layer.bias else 0),
    }
    dram = in_words + weight_words + out_words
    return _result(ctx, config, "aux-fc", operations, macs, accesses, dram)


def _schedule_elementwise(
    ctx: LayerContext, config: AcceleratorConfig, name: str, per_element: int
) -> ScheduleResult:
    elements = ctx.out_shape.elements
    operations = elements * per_element
    accesses = {
        "input": AccessCounter(loads=ctx.in_shape.elements if per_element else 0),
        "output": AccessCounter(stores=elements if per_element else 0),
        "weight": _IDLE,
        "bias": _IDLE,
    }
    return _result(ctx, config, name, operations, 0, accesses, 0)


def schedule_auxiliary(
    ctx: LayerContext, config: AcceleratorConfig
) -> ScheduleResult:
    """Cost a non-conv layer; raises :class:`ScheduleError` for conv layers."""
    layer = ctx.layer
    if isinstance(layer, PoolLayer):
        return _schedule_pool(ctx, config)
    if isinstance(layer, FCLayer):
        return _schedule_fc(ctx, config)
    if isinstance(layer, LRNLayer):
        # one element per cycle through the activation-function unit
        return _schedule_elementwise(ctx, config, "aux-lrn", 1)
    if isinstance(layer, ReLULayer):
        # fused into the preceding layer's store path
        return _schedule_elementwise(ctx, config, "aux-relu", 0)
    if isinstance(layer, ConcatLayer):
        # pure wiring: the planner's layout handoff makes it free
        return _schedule_elementwise(ctx, config, "aux-concat", 0)
    if isinstance(layer, EltwiseAddLayer):
        # one add per element on the accumulate adder group
        return _schedule_elementwise(ctx, config, "aux-add", 1)
    raise ScheduleError(
        f"{ctx.name}: auxiliary scheduler does not handle "
        f"{type(layer).__name__} (conv layers use the parallelization schemes)"
    )
