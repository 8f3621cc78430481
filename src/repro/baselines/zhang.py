"""Zhang et al. FPGA'15 baseline [14] — the Fig. 9 comparator.

"Optimizing FPGA-based Accelerator Design for Deep Convolutional Neural
Networks" uses a roofline-optimized *unified* loop tiling with unroll
factors ``<Tm, Tn> = <64, 7>`` (64 output maps, 7 input maps in parallel)
at 100 MHz, fixed across all layers — a single inter-kernel-style dataflow.
Its cycle count per conv layer is therefore

    cycles = ox * oy * k * k * ceil(Din/Tn) * ceil(Dout/Tm)

which is exactly our inter-kernel formula at a 7-64 PE width.  The model
reproduces the paper's published comparison to within a few percent:
conv1 = 7.32 ms (paper plots 7.4), whole-net AlexNet = 20.1 ms (paper 21.6).

The design is customized for AlexNet ("they just give a solution for
Alexnet"); running it on the other networks uses the same fixed tiling,
which is the point of the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import check_counts, check_real
from repro.nn.network import LayerContext, Network
from repro.schemes.base import group_geometry

__all__ = ["ZhangFpgaModel", "ZHANG_7_64"]


@dataclass(frozen=True)
class ZhangFpgaModel:
    """Fixed unified-tiling FPGA accelerator of [14]."""

    tn: int = 7  # input-map unroll (Tin analogue)
    tm: int = 64  # output-map unroll (Tout analogue)
    frequency_hz: float = 100e6

    def __post_init__(self) -> None:
        check_counts(self, "tn", "tm", minimum=1)
        check_real(self.frequency_hz, "frequency_hz", gt=0)

    @property
    def multipliers(self) -> int:
        """DSP multiplier count (448 for the published 7-64 design)."""
        return self.tn * self.tm

    @property
    def name(self) -> str:
        return f"zhang-{self.tn},{self.tm}"

    def layer_cycles(self, ctx: LayerContext) -> int:
        """Cycles of one conv layer under the fixed unified tiling."""
        geom = group_geometry(ctx)
        return (
            geom.groups
            * geom.out_pixels
            * geom.k
            * geom.k
            * math.ceil(geom.d / self.tn)
            * math.ceil(geom.dout_g / self.tm)
        )

    def layer_ms(self, ctx: LayerContext) -> float:
        return self.layer_cycles(ctx) / self.frequency_hz * 1e3

    def network_cycles(self, net: Network) -> int:
        return sum(self.layer_cycles(c) for c in net.conv_contexts())

    def network_ms(self, net: Network) -> float:
        return self.network_cycles(net) / self.frequency_hz * 1e3

    def layer_breakdown(self, net: Network) -> List[float]:
        """Per-conv-layer milliseconds."""
        return [self.layer_ms(c) for c in net.conv_contexts()]


#: the published optimal configuration of [14]
ZHANG_7_64 = ZhangFpgaModel()
