"""Inter-kernel parallelization (Sec 4.1.1) — the DianNao-style baseline [8].

Each operation transfers ``Tin`` pixels along the depth (``Din``) direction —
same kernel position, consecutive input maps — and broadcasts them to
``Tout`` lanes computing ``Tout`` different output maps.  The accumulation
over the ``k*k`` window and the ``Din`` chunks happens in the PE accumulator,
so one output pixel is stored once.

Weaknesses modelled exactly as the paper describes:

* parallelism is capped by ``Din``/``Dout`` — with ``Din = 3`` and
  ``Tin = 16``, 13 of 16 multiplier columns idle (conv1 disaster);
* no kernel sharing: the concurrent words belong to *different* maps, so
  every operation reloads both its data words and its ``Tin*Tout`` weights
  from the buffers — heavy traffic, high power.
"""

from __future__ import annotations

import math

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.nn.network import LayerContext
from repro.schemes.base import ScheduleResult, Scheme, group_geometry
from repro.tiling.fit import analyze_fit
from repro.tiling.layout import Layout

__all__ = ["InterKernelScheme"]


class InterKernelScheme(Scheme):
    """Original inter-kernel scheme (the ``inter`` series of Figs. 7-10)."""

    name = "inter"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        din_chunks = math.ceil(geom.d / config.tin)
        dout_chunks = math.ceil(geom.dout_g / config.tout)

        # one op per (output pixel, kernel element, Din chunk, Dout chunk)
        ops_per_group = geom.out_pixels * geom.k * geom.k * din_chunks * dout_chunks
        operations = geom.groups * ops_per_group

        # data: the d useful words of each Din chunk are fetched per output
        # pixel and kernel element, and re-fetched for every Dout chunk
        input_loads = (
            geom.groups
            * geom.out_pixels
            * geom.k
            * geom.k
            * geom.d
            * dout_chunks
        )
        # weights: no reuse — every lane's d useful weights are fetched on
        # every operation (per output pixel), the scheme's energy sin
        weight_loads = (
            geom.groups
            * geom.out_pixels
            * geom.k
            * geom.k
            * geom.d
            * geom.dout_g
        )
        # accumulation completes inside the PE: one store per output pixel
        output_stores = ctx.out_shape.elements

        fit = analyze_fit(ctx, config)
        dram_words = fit.total_traffic_words
        # DMA-side: weight/input buffer fills and the output drain
        weight_words = fit.working_set.weight_words
        input_fills = dram_words - weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(loads=ctx.out_shape.elements, stores=output_stores),
            "weight": AccessCounter(loads=weight_loads, stores=weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=geom.macs,
            extra_adds=0,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=fit.dma_cycles,
            input_layout=Layout.INTER,
            output_layout=Layout.INTER,
            fit=fit,
        )
