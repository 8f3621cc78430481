"""Intra-kernel parallelization (Sec 4.1.2).

Concurrent PE inputs come from the *same* input map, so one weight (set) is
shared across them — the scheme's energy advantage: "each operation just
needs to reload either data or weight, not both".

Realizations, following the paper's analysis:

* **sliding window** — only efficient when ``k == s`` (no overlap between
  adjacent windows, data for one window contiguous in the buffer).  Used
  automatically in that case.
* **data unrolling** — the general case (``k != s``); the input is expanded
  by Eq. 1's duplication factor T so every receptive field is contiguous.
  This is what the paper's ``intra`` series implements ("we implemented the
  unrolling scheme in this paper").  Costs, as the paper describes them:

  - off-chip footprint and DMA traffic inflate by T;
  - the raw->unrolled reshape is done by the host processor "at
    considerable overhead" — charged as a serial reshape stream at
    ``reshape_words_per_cycle`` (default 2: a 32-bit host interface
    feeding 16-bit words);
  - the unrolled stream has no spatial structure left, so it cannot be
    strip-tiled: when the unrolled tensor overflows the input buffer, the
    non-resident fraction is re-fetched from DRAM on every output-chunk
    pass — the "many redundant data due to the data alignment problem"
    that makes whole-net intra lose to adap-2 in Fig. 10 and go *negative*
    on VGG in Table 5.

Loop structure (Fig. 4b): one ``Tin``-slice of the receptive field — i.e.
``Tin`` weights shared by the whole map — stays *resident* while the array
sweeps all output pixels, accumulating 1/``field_chunks`` partial sums into
the output buffer (add-and-store), exactly the reuse pattern the improved
inter-kernel scheme borrows for the top layers.
"""

from __future__ import annotations

import math

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.nn.network import LayerContext
from repro.schemes.base import ScheduleResult, Scheme, group_geometry
from repro.tiling.fit import analyze_fit
from repro.tiling.layout import Layout
from repro.tiling.unroll import unroll_stats

__all__ = ["IntraKernelScheme"]

#: host reshape feed rate for the unrolling realization: a 32-bit host
#: interface moves two 16-bit words per accelerator cycle
DEFAULT_RESHAPE_WORDS_PER_CYCLE = 2.0


class IntraKernelScheme(Scheme):
    """Intra-kernel scheme: sliding window when ``k == s``, else unrolling."""

    name = "intra"

    def __init__(
        self, reshape_words_per_cycle: float = DEFAULT_RESHAPE_WORDS_PER_CYCLE
    ) -> None:
        if reshape_words_per_cycle <= 0:
            raise ValueError("reshape rate must be positive")
        self.reshape_words_per_cycle = reshape_words_per_cycle

    def schedule(
        self, ctx: LayerContext, config: AcceleratorConfig
    ) -> ScheduleResult:
        geom = group_geometry(ctx)
        field_len = geom.k * geom.k * geom.d  # one receptive field
        field_chunks = math.ceil(field_len / config.tin)
        dout_chunks = math.ceil(geom.dout_g / config.tout)

        ops_per_group = geom.out_pixels * field_chunks * dout_chunks
        operations = geom.groups * ops_per_group

        # data: each receptive field streamed once per Dout chunk
        input_loads = geom.groups * geom.out_pixels * field_len * dout_chunks
        # weights: resident per (field chunk, Dout chunk) pass — once each
        weight_loads = geom.groups * field_len * geom.dout_g
        # add-and-store: one partial sum per (pixel, field chunk) pass
        passes = field_chunks
        output_stores = ctx.out_shape.elements * passes
        output_loads = ctx.out_shape.elements * (passes - 1)
        extra_adds = output_loads

        sliding = geom.k == geom.s and ctx.layer.pad == 0
        fit = analyze_fit(ctx, config)
        if sliding:
            # no duplication, spatial strip tiling works: use the fit model
            stream_words = ctx.in_shape.elements
            reshape_cycles = 0.0
            dram_words = fit.total_traffic_words
            mode = "sliding"
        else:
            stats = unroll_stats(ctx.layer, ctx.in_shape)
            stream_words = stats.unrolled_elements
            # the host reshapes the raw input once, into DRAM
            reshape_cycles = stream_words / self.reshape_words_per_cycle
            # compulsory: unrolled input replaces the raw input
            dram_words = (
                fit.compulsory_words
                - fit.working_set.input_words
                + stream_words
            )
            # no strip tiling: whatever doesn't stay resident in the input
            # buffer is re-fetched on every subsequent output-chunk pass
            excess = max(0, stream_words - config.input_buffer_words)
            dram_words += (dout_chunks - 1) * excess
            # weight-buffer overflow still re-streams like everyone else
            dram_words += fit.spill_words
            mode = "unrolling"
        dma_cycles = dram_words / config.dram_words_per_cycle

        # DMA-side buffer accesses: fills into input/weight, output drain
        weight_words = geom.groups * field_len * geom.dout_g
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
            dma_cycles=dma_cycles,
            reshape_cycles=reshape_cycles,
            input_layout=Layout.INTRA,
            output_layout=Layout.INTRA,
            fit=fit,
            notes={"mode": mode, "stream_words": stream_words},
        )
