"""Kernel-partitioning scheme (Sec 4.2.1, Fig. 5, Algorithm 1) — the hybrid.

The k x k kernel is split into ``G = g*g`` sub-kernels of ``ks = s`` per side
(Eq. 2, :mod:`repro.tiling.partition`).  Each sub-kernel scans the padded
input with stride = window size, so adjacent windows never overlap: window
data is contiguous in the buffer, giving intra-kernel's reuse without its
alignment problem.

Mapping (Sec 4.2.1 last paragraph): the basic unit is one ``ks x ks``
window.  When ``Tin >= ks*ks`` multiple windows are mapped per operation
(``wpo = Tin // (ks*ks)`` windows, i.e. ``wpo`` output pixels advance at
once); when the sub-window exceeds ``Tin`` it takes ``ceil(ks*ks / Tin)``
operations.  ``Tout`` lanes compute ``Tout`` output maps sharing the window
data.

Accumulation follows Algorithm 1: sub-kernel ``i``'s partial map is
add-and-stored onto sub-kernel ``i-1``'s running sum in the output buffer
(lines 7-8), and the input-map loop rides the same mechanism — so the
output buffer sees ``G * d`` accumulation passes.  Cheap for bottom layers
(``d`` small), expensive for top layers (the paper: "partition ... is not
suitable for the top layers"), which is exactly why the adaptive scheme
exists.

The zero-padding overhead ``(g*ks)^2 / k^2`` appears in the cycle count
(padded weights are multiplied like real ones) but those pad multiplies are
*not* useful MACs, so reported utilization reflects it.
"""

from __future__ import annotations

import math

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.network import LayerContext
from repro.schemes.base import ScheduleResult, Scheme, group_geometry
from repro.tiling.fit import analyze_fit
from repro.tiling.layout import Layout
from repro.tiling.partition import padded_input_extent, partition_geometry

__all__ = ["KernelPartitionScheme"]


class KernelPartitionScheme(Scheme):
    """The paper's kernel-partitioning hybrid (``partition`` series)."""

    name = "partition"

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        if geom.s >= geom.k:
            raise ScheduleError(
                f"{ctx.name}: partitioning needs stride < kernel "
                f"(k={geom.k}, s={geom.s}); use intra-kernel instead"
            )
        pgeom = partition_geometry(geom.k, geom.s)
        window = pgeom.sub_window_elements  # ks * ks
        pieces = pgeom.pieces  # G = g * g

        if window <= config.tin:
            windows_per_op = config.tin // window
            ops_per_scan = math.ceil(geom.out_pixels / windows_per_op)
        else:
            windows_per_op = 1
            ops_per_scan = geom.out_pixels * math.ceil(window / config.tin)

        dout_chunks = math.ceil(geom.dout_g / config.tout)
        # one scan of the output map per (piece, input map, Dout chunk)
        scans = pieces * geom.d * dout_chunks
        operations = geom.groups * scans * ops_per_scan

        # data: every window's ks*ks words per scan (contiguous, unit stride)
        input_loads = geom.groups * scans * geom.out_pixels * window
        # weights: one sub-kernel resident per scan — each (padded) weight
        # loaded once per Dout lane
        weight_loads = geom.groups * pieces * window * geom.d * geom.dout_g
        # Algorithm 1 lines 7-8: add-and-store per output pixel per pass;
        # passes = pieces * d (piece loop outer, map loop riding the same
        # accumulate-in-buffer mechanism)
        passes = pieces * geom.d
        output_stores = ctx.out_shape.elements * passes
        output_loads = ctx.out_shape.elements * (passes - 1)
        extra_adds = output_loads

        fit = analyze_fit(ctx, config)
        # off-chip input grows only by the partition zero-padding margin
        _, ph = padded_input_extent(
            ctx.in_shape.height, geom.k, geom.s, ctx.layer.pad
        )
        _, pw = padded_input_extent(
            ctx.in_shape.width, geom.k, geom.s, ctx.layer.pad
        )
        padded_input_words = ctx.in_shape.depth * ph * pw
        padded_weight_words = (
            geom.groups * pieces * window * geom.d * geom.dout_g
        )
        dram_words = (
            fit.total_traffic_words
            - fit.working_set.input_words
            + padded_input_words
            - fit.working_set.weight_words
            + padded_weight_words
        )
        dma_cycles = dram_words / config.dram_words_per_cycle

        # DMA-side: weight/input buffer fills and the output drain
        input_fills = dram_words - padded_weight_words - ctx.out_shape.elements
        accesses = {
            "input": AccessCounter(loads=input_loads, stores=max(0, input_fills)),
            "output": AccessCounter(
                loads=output_loads + ctx.out_shape.elements, stores=output_stores
            ),
            "weight": AccessCounter(loads=weight_loads, stores=padded_weight_words),
            "bias": AccessCounter(loads=ctx.out_shape.depth),
        }

        # useful MACs exclude multiplies against partition zero padding
        useful = geom.macs
        return ScheduleResult(
            scheme=self.name,
            layer_name=ctx.name,
            config=config,
            operations=operations,
            useful_macs=useful,
            extra_adds=extra_adds,
            accesses=accesses,
            dram_words=dram_words,
            dma_cycles=dma_cycles,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
            notes={
                "pieces": pieces,
                "sub_kernel": pgeom.sub_kernel,
                "windows_per_op": windows_per_op,
                "pad_overhead": pgeom.pad_overhead,
            },
        )
