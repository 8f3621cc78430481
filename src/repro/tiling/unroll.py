"""Data unrolling (im2col) — the paper's Equation 1 and Fig. 3.

Unrolling replicates every input pixel once per kernel window that covers
it, turning convolution into a dense matrix product.  It makes mapping
trivial but multiplies the footprint by

    T = ((X-k)/s + 1) * ((Y-k)/s + 1) * k * k / (X * Y)          (Eq. 1)

which for the bottom layers of AlexNet/GoogLeNet is 9x-18.9x (Fig. 3).
The transform itself (:func:`im2col`) is used by the functional simulator
to execute the intra-kernel scheme's numerics; its two primitives, a
strided window view of a padded tensor (:func:`conv_window_view`) and the
GEMM operand it flattens to (:func:`window_columns`), also build the
functional simulator's direct and partitioned GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError, check_count
from repro.nn.layers import ConvLayer, TensorShape, conv_output_hw

__all__ = [
    "UnrollStats",
    "unroll_factor",
    "unroll_stats",
    "im2col",
    "pad_input",
    "conv_window_view",
    "window_columns",
]


@dataclass(frozen=True)
class UnrollStats:
    """Raw vs unrolled footprints for one conv layer (one input tensor)."""

    raw_elements: int
    unrolled_elements: int

    @property
    def factor(self) -> float:
        """Duplication factor T of Equation 1."""
        return self.unrolled_elements / self.raw_elements

    def raw_bits(self, word_bits: int = 16) -> int:
        return self.raw_elements * word_bits

    def unrolled_bits(self, word_bits: int = 16) -> int:
        return self.unrolled_elements * word_bits


def unroll_factor(x: int, y: int, k: int, s: int) -> float:
    """Equation 1: duplication factor for an ``x*y`` map, kernel ``k``, stride ``s``.

    The paper's formula assumes no padding (the unrolled matrix has one row
    per output pixel and ``k*k`` entries per row).
    """
    if k > x or k > y:
        raise ShapeError(f"kernel {k} larger than map {x}x{y}")
    ox = (x - k) // s + 1
    oy = (y - k) // s + 1
    return ox * oy * k * k / (x * y)


def unroll_stats(layer: ConvLayer, in_shape: TensorShape) -> UnrollStats:
    """Footprint statistics for unrolling ``layer``'s input (all ``Din`` maps).

    Accounts for padding: the unrolled tensor always has ``ox*oy`` rows of
    ``k*k`` pixels per input map.
    """
    out = layer.output_shape(in_shape)
    raw = in_shape.elements
    unrolled = out.height * out.width * layer.kernel * layer.kernel * in_shape.depth
    return UnrollStats(raw_elements=raw, unrolled_elements=unrolled)


def pad_input(data: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of a (D, H, W) tensor."""
    check_count(pad, "pad", 0, ShapeError)
    if pad == 0:
        return data
    return np.pad(data, ((0, 0), (pad, pad), (pad, pad)))


def conv_window_view(
    padded: np.ndarray,
    kernel: int,
    stride: int,
    oh: int,
    ow: int,
    oy0: int = 0,
    ox0: int = 0,
) -> np.ndarray:
    """Read-only strided view of every conv window of a padded tensor.

    Returns shape ``(D, oh, ow, kernel, kernel)`` where entry
    ``[d, oy, ox]`` is the window at input offset
    ``(oy0 + oy*stride, ox0 + ox*stride)`` — no data is copied.
    """
    win = sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    return win[
        :,
        oy0 : oy0 + (oh - 1) * stride + 1 : stride,
        ox0 : ox0 + (ow - 1) * stride + 1 : stride,
    ]


def window_columns(windows: np.ndarray) -> np.ndarray:
    """Flatten a ``(D, oh, ow, k, k)`` window view into GEMM columns.

    Returns a contiguous ``(oh*ow, D*k*k)`` matrix whose row ``r`` is the
    receptive field of output pixel ``r`` in row-major output order — the
    layout :func:`im2col` returns.
    """
    d, oh, ow, k, _ = windows.shape
    return np.ascontiguousarray(windows.transpose(1, 2, 0, 3, 4)).reshape(
        oh * ow, d * k * k
    )


def im2col(data: np.ndarray, kernel: int, stride: int, pad: int = 0) -> np.ndarray:
    """Unroll a (D, H, W) tensor into a (oh*ow, D*k*k) matrix.

    Row ``r`` holds the receptive field of output pixel ``r`` (row-major over
    the output map), with the per-map ``k*k`` patches concatenated along the
    depth axis — the layout a software GEMM (Caffe-style) consumes.  Every
    patch is copied at once out of a strided window view.
    """
    if data.ndim != 3:
        raise ShapeError(f"expected (D, H, W) tensor, got shape {data.shape}")
    padded = pad_input(data, pad)
    oh = conv_output_hw(padded.shape[1], kernel, stride, 0)
    ow = conv_output_hw(padded.shape[2], kernel, stride, 0)
    return window_columns(conv_window_view(padded, kernel, stride, oh, ow))
