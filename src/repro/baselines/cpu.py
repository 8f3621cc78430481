"""CPU baseline — the Table 4 comparator.

The paper measures Caffe-style C++ forward propagation on an Intel Xeon at
2.20 GHz.  We model that software stack analytically: conv layers run as
im2col + GEMM, and the sustained throughput is the core's peak FLOP rate
times a GEMM efficiency that degrades when the reduction dimension
(``k*k*Din``) is small — exactly why GoogLeNet, full of 1x1 and small
reductions, sustains fewer GFLOPs than VGG's fat 3x3x512 GEMMs.

Calibration: a 2.2 GHz core with 128-bit SSE FMA issue (8 single-precision
FLOPs/cycle -> 17.6 GFLOP/s peak) at ~0.22 large-GEMM efficiency sustains
~3.9 GFLOP/s.  Back-solving the paper's Table 4 rows gives 2.2-4.0 sustained
GFLOP/s across the four networks (e.g. VGG: 2 * 19.6 GMACs / 10.07 s =
3.9 GFLOP/s), so this model reproduces the published times within ~15%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError, check_real
from repro.nn.layers import ConvLayer, FCLayer
from repro.nn.network import LayerContext, Network

__all__ = ["CpuModel", "CpuLayerTime", "DEFAULT_CPU"]


@dataclass(frozen=True)
class CpuLayerTime:
    """One layer's modelled software execution."""

    layer_name: str
    flops: int
    efficiency: float
    seconds: float


@dataclass(frozen=True)
class CpuModel:
    """Analytical Caffe-on-Xeon time model."""

    frequency_hz: float = 2.2e9
    flops_per_cycle: float = 8.0
    #: efficiency of a large, cache-friendly GEMM on this stack
    peak_efficiency: float = 0.22
    #: reduction depth at which GEMM efficiency saturates
    saturation_depth: int = 256
    #: floor for tiny reductions (1x1 conv on few maps, bandwidth-bound)
    min_efficiency: float = 0.10

    def __post_init__(self) -> None:
        check_real(self.frequency_hz, "frequency_hz", gt=0)
        check_real(self.flops_per_cycle, "flops_per_cycle", gt=0)
        if not 0 < self.min_efficiency <= self.peak_efficiency <= 1:
            raise ConfigError("need 0 < min_efficiency <= peak_efficiency <= 1")
        check_real(self.saturation_depth, "saturation_depth", gt=0)

    @property
    def peak_flops(self) -> float:
        return self.frequency_hz * self.flops_per_cycle

    def gemm_efficiency(self, reduction_depth: int) -> float:
        """Sustained/peak ratio for a GEMM with the given K dimension."""
        check_real(reduction_depth, "reduction depth", gt=0)
        frac = min(1.0, reduction_depth / self.saturation_depth)
        return self.min_efficiency + (self.peak_efficiency - self.min_efficiency) * frac

    def layer_time(self, ctx: LayerContext) -> CpuLayerTime:
        """Modelled time of one conv/FC layer (0 for cheap layers)."""
        layer = ctx.layer
        flops = 2 * ctx.macs
        if isinstance(layer, ConvLayer):
            depth = layer.kernel * layer.kernel * (layer.in_maps // layer.groups)
        elif isinstance(layer, FCLayer):
            depth = ctx.in_shape.elements
        else:
            return CpuLayerTime(ctx.name, 0, 1.0, 0.0)
        eff = self.gemm_efficiency(depth)
        seconds = flops / (self.peak_flops * eff) if flops else 0.0
        return CpuLayerTime(ctx.name, flops, eff, seconds)

    def network_time(self, net: Network, conv_only: bool = True) -> float:
        """Forward-propagation seconds for the whole network."""
        total = 0.0
        for ctx in net.contexts():
            if conv_only and not isinstance(ctx.layer, ConvLayer):
                continue
            total += self.layer_time(ctx).seconds
        return total

    def network_ms(self, net: Network, conv_only: bool = True) -> float:
        return self.network_time(net, conv_only=conv_only) * 1e3

    def layer_breakdown(self, net: Network) -> List[CpuLayerTime]:
        """Per-layer times for every conv/FC layer."""
        return [
            self.layer_time(ctx)
            for ctx in net.contexts()
            if isinstance(ctx.layer, (ConvLayer, FCLayer))
        ]


#: the calibrated Xeon 2.20 GHz instance used by the Table 4 bench
DEFAULT_CPU = CpuModel()
