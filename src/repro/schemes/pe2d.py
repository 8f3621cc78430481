"""2D-PE (systolic-mesh) intra-kernel realization — Sec 4.1.2, approach 3.

The paper analyzes a third way to exploit intra-kernel parallelism: "a 2D
mesh PE similar to systolic array [11, 15]" (ShiDianNao-style).  A ``Px x
Py`` mesh maps one output pixel per PE; input pixels enter at the array
edge and *propagate between neighbouring PEs*, so each input word is read
from the buffer roughly once per output-map pass — "very high data
reusability ... very effective when dealing with specific network topology
in vision processing".

And its weakness, which this model reproduces and the ablation benchmark
quantifies: "this highly-effective 2D-PE design will encounter performance
degradation or underutilization issue when it encounters networks with
varied size of kernels and stride":

* **stride** — neighbour propagation supplies one new pixel row per step
  only at ``s = 1``; at stride ``s`` the window jumps ``s`` pixels, the
  inter-PE reuse chain breaks, and the edge must inject ``s`` rows per
  step.  Data supply becomes the bottleneck: the array stalls by a factor
  ``s`` on the streaming side.
* **spatial quantization** — output maps are processed in ``Px x Py``
  tiles; maps that do not divide the mesh leave PEs idle (e.g. 13x13
  AlexNet top layers on a 16x16 mesh use 66% of the PEs).
* **depth serialization** — the mesh parallelizes space, not depth, so
  ``Din``/``Dout`` are walked serially; deep 1x1 layers leave the
  propagation network useless.

The mesh is sized ``Px = Tin``, ``Py = Tout`` so every comparison uses the
same multiplier budget as the paper's linear array.

This scheme is an *extension* (the paper analyzes but does not evaluate
it); it is registered as ``"pe2d"`` but excluded from the paper-parity
experiment drivers.
"""

from __future__ import annotations

import math

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.nn.network import LayerContext
from repro.schemes.base import ScheduleResult, Scheme, group_geometry
from repro.tiling.fit import analyze_fit
from repro.tiling.layout import Layout

__all__ = ["Pe2dScheme"]


class Pe2dScheme(Scheme):
    """ShiDianNao-style output-stationary 2D mesh."""

    name = "pe2d"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        px, py = config.tin, config.tout

        tiles = math.ceil(geom.ox / px) * math.ceil(geom.oy / py)
        # each PE serially accumulates its k*k*d receptive field, one MAC
        # per cycle, for each output map of the group
        compute_per_tile = geom.k * geom.k * geom.d * geom.dout_g
        operations = geom.groups * tiles * compute_per_tile

        # stride > 1 breaks neighbour propagation: the edge injectors must
        # supply s rows per window step and the array stalls on data supply
        supply_cycles = operations * max(1, geom.s)

        # traffic: inputs stream once per output-map pass (the mesh's big
        # win); weights are broadcast once per (kernel element, map) pass
        input_loads = ctx.in_shape.elements * geom.dout_g
        weight_loads = geom.groups * geom.k * geom.k * geom.d * geom.dout_g
        output_stores = ctx.out_shape.elements

        fit = analyze_fit(ctx, config)
        dram_words = fit.total_traffic_words
        weight_words = fit.working_set.weight_words
        input_fills = dram_words - weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(loads=ctx.out_shape.elements, stores=output_stores),
            "weight": AccessCounter(loads=weight_loads, stores=weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }

        # utilization: edge tiles idle the mesh fringe; report the true
        # useful-MAC fraction of the clocked array including supply stalls
        stalled_operations = int(supply_cycles)
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=stalled_operations,
            useful_macs=geom.macs,
            extra_adds=0,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=fit.dma_cycles,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
            notes={
                "tiles": tiles,
                "mesh": f"{px}x{py}",
                "stride_stall_factor": max(1, geom.s),
            },
        )
