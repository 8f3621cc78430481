"""Ideal upper-bound schedule (the "ideal" series in Fig. 7).

Assumes every multiplier is 100% utilized and data alignment is perfect, so
the layer takes ``ceil(MACs / (Tin*Tout))`` cycles, each tensor crosses each
interface exactly once, and no buffer space or bandwidth is wasted.
"""

from __future__ import annotations

import math

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.nn.network import LayerContext
from repro.schemes.base import ScheduleResult, Scheme, group_geometry
from repro.tiling.fit import analyze_fit
from repro.tiling.layout import Layout

__all__ = ["IdealScheme"]


class IdealScheme(Scheme):
    """100%-utilization bound used to normalize the other schemes."""

    name = "ideal"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        macs = geom.macs
        operations = math.ceil(macs / config.multipliers)

        weights = geom.groups * geom.k * geom.k * geom.d * geom.dout_g
        # each word crosses its buffer exactly once, fill + use
        accesses = {
            "input": AccessCounter(ctx.in_shape.elements, ctx.in_shape.elements),
            "output": AccessCounter(ctx.out_shape.elements, ctx.out_shape.elements),
            "weight": AccessCounter(weights, weights),
            "bias": AccessCounter(),
        }
        fit = analyze_fit(ctx, config)
        dram_words = fit.compulsory_words
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=macs,
            extra_adds=0,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=dram_words / config.dram_words_per_cycle,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
        )
