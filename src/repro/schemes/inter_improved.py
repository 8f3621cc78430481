"""Improved inter-kernel parallelization (Sec 4.2.2) — adap-2's top-layer scheme.

Loop interchange over the original inter-kernel order: instead of finishing a
whole ``k*k*Din`` accumulation before moving on (which reloads both data and
weights on every multiply), fix one kernel element and one ``Din`` chunk,
keep those ``Tin*Tout`` weights *resident* in the array, and sweep across all
output pixels computing ``1/(k*k)`` partial sums.

Cost/benefit exactly as Fig. 6's discussion:

* stores grow by one partial-sum write per (output pixel, kernel element,
  Din chunk) — plus the partial-sum read-back for accumulation;
* weight loads collapse from once-per-output-pixel to exactly once, saving
  ``~X*Y*Dout*k*k*Din/Tin`` load operations — since ``Din >> Tin`` in top
  layers, buffer bandwidth occupancy drops dramatically;
* stores are off the critical path, so cycles equal the original inter-kernel
  scheme ("adpa-1 and adpa-2 are the same on performance").
"""

from __future__ import annotations

import math

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.nn.network import LayerContext
from repro.schemes.base import ScheduleResult, Scheme, group_geometry
from repro.tiling.fit import analyze_fit
from repro.tiling.layout import Layout

__all__ = ["ImprovedInterKernelScheme"]


class ImprovedInterKernelScheme(Scheme):
    """Inter-kernel with weight-resident partial-sum accumulation."""

    name = "inter-improved"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        din_chunks = math.ceil(geom.d / config.tin)
        dout_chunks = math.ceil(geom.dout_g / config.tout)

        # identical compute cycles to the original inter-kernel scheme
        ops_per_group = geom.out_pixels * geom.k * geom.k * din_chunks * dout_chunks
        operations = geom.groups * ops_per_group

        # data loads: unchanged — each Din chunk's d words per output pixel
        # and kernel element, re-streamed per Dout chunk
        input_loads = (
            geom.groups
            * geom.out_pixels
            * geom.k
            * geom.k
            * geom.d
            * dout_chunks
        )
        # weights: resident per (kernel element, Din chunk, Dout chunk) pass —
        # every weight is loaded exactly once
        weight_loads = geom.groups * geom.k * geom.k * geom.d * geom.dout_g

        # partial sums: one add-and-store per op result; every pass beyond the
        # first also reloads the running sum
        passes = geom.k * geom.k * din_chunks
        output_stores = ctx.out_shape.elements * passes
        output_loads = ctx.out_shape.elements * (passes - 1)
        extra_adds = output_loads  # the added accumulator group's work

        fit = analyze_fit(ctx, config)
        dram_words = fit.total_traffic_words
        # DMA-side: weight/input buffer fills and the output drain
        weight_words = fit.working_set.weight_words
        input_fills = dram_words - weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(
                loads=output_loads + ctx.out_shape.elements, stores=output_stores
            ),
            "weight": AccessCounter(loads=weight_loads, stores=weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=geom.macs,
            extra_adds=extra_adds,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=fit.dma_cycles,
            input_layout=Layout.INTER,
            output_layout=Layout.INTER,
            fit=fit,
            notes={"passes": passes},
        )
