"""Buffer-fit analysis and off-chip traffic estimation.

The paper's Table 3 accelerator has 2 MB input/output buffers and a 1 MB
weight buffer.  Most AlexNet/GoogLeNet/NiN layers fit; VGG's big bottom
layers need ~8 MB ("we have to exchange data frequently between on-chip
buffer and off-chip memory which is very time consuming") — that exchange is
why the adaptive scheme's VGG speedup is marginal (Fig. 8 discussion).

The model here charges:

* **compulsory traffic** — input + weights read once, output written once;
* **spill traffic** — re-reads caused by tiling:
  - if the weights overflow the weight buffer, the output maps are produced
    in ``weight_passes`` chunks and the input is re-streamed per chunk;
  - if the input or the output overflows its buffer, the layer is processed
    in spatial row strips (input strip and its output strip move together,
    so partial sums never round-trip off chip) and each strip boundary
    re-reads a ``k - s`` input row halo.

DMA cycles are ``traffic / dram_words_per_cycle``; with double buffering the
layer's wall-clock is ``max(compute, dma)``, so spill only hurts when it
makes the layer memory-bound — exactly VGG's situation.

A fit reads the layer's geometry and the config's memory system alone: the
three data buffers' whole words and the DRAM rate
(``AcceleratorConfig.fit_key``), never the PE shape.  So the schedule cache
(:mod:`repro.perf.cache`) keeps one :class:`FitReport` per (layer
geometry, memory system), and every cost table of a sweep over PE shapes
shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.errors import ShapeError
from repro.nn.layers import ConvLayer, TensorShape
from repro.nn.network import LayerContext, per_context

__all__ = ["WorkingSet", "FitReport", "working_set", "analyze_fit"]


@dataclass(frozen=True)
class WorkingSet:
    """Per-layer on-chip word requirements."""

    input_words: int
    output_words: int
    weight_words: int

    @property
    def total_words(self) -> int:
        return self.input_words + self.output_words + self.weight_words


@dataclass(frozen=True)
class FitReport:
    """Result of fitting one conv layer onto the accelerator's buffers."""

    working_set: WorkingSet
    input_fits: bool
    output_fits: bool
    weight_fits: bool
    #: number of output-channel chunks forced by the weight buffer
    weight_passes: int
    #: number of input row strips forced by the input buffer
    input_strips: int
    compulsory_words: int
    spill_words: int
    dma_cycles: float

    @property
    def everything_fits(self) -> bool:
        return self.input_fits and self.output_fits and self.weight_fits

    @property
    def total_traffic_words(self) -> int:
        return self.compulsory_words + self.spill_words


@per_context
def working_set(ctx: LayerContext) -> WorkingSet:
    """On-chip words needed to hold a conv layer's tensors whole."""
    layer = ctx.layer
    if not isinstance(layer, ConvLayer):
        raise ShapeError(f"{ctx.name}: fit analysis applies to conv layers")
    weights = layer.kernel * layer.kernel * (layer.in_maps // layer.groups) * layer.out_maps
    return WorkingSet(
        input_words=ctx.in_shape.elements,
        output_words=ctx.out_shape.elements,
        weight_words=weights,
    )


def analyze_fit(ctx: LayerContext, config: AcceleratorConfig) -> FitReport:
    """Fit ``ctx`` onto ``config``'s buffers and estimate off-chip traffic."""
    layer = ctx.layer
    ws = working_set(ctx)
    in_cap = config.input_buffer_words
    out_cap = config.output_buffer_words
    w_cap = config.weight_buffer_words

    input_fits = ws.input_words <= in_cap
    output_fits = ws.output_words <= out_cap
    weight_fits = ws.weight_words <= w_cap

    weight_passes = max(1, math.ceil(ws.weight_words / w_cap))
    # spatial strips: the input strip and its output strip move together, so
    # whichever buffer is tighter sets the strip count
    input_strips = max(
        1,
        math.ceil(ws.input_words / in_cap),
        math.ceil(ws.output_words / out_cap),
    )

    compulsory = ws.input_words + ws.weight_words + ws.output_words

    spill = 0
    # weights overflow: the input is streamed once per weight chunk
    if weight_passes > 1:
        spill += (weight_passes - 1) * ws.input_words
    # spatial strips: a (k - s)-row input halo is re-read at each boundary
    if input_strips > 1:
        halo_rows = max(0, layer.kernel - layer.stride)
        row_words = ctx.in_shape.width * ctx.in_shape.depth
        spill += (input_strips - 1) * halo_rows * row_words

    dma_cycles = (compulsory + spill) / config.dram_words_per_cycle
    return FitReport(
        working_set=ws,
        input_fits=input_fits,
        output_fits=output_fits,
        weight_fits=weight_fits,
        weight_passes=weight_passes,
        input_strips=input_strips,
        compulsory_words=compulsory,
        spill_words=spill,
        dma_cycles=dma_cycles,
    )
