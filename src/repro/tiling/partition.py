"""Kernel partitioning — the paper's Equation 2, Fig. 5 and Algorithm 1.

A ``k x k`` kernel convolved at stride ``s < k`` overlaps its neighbouring
windows, which is what makes intra-kernel parallelism hard to align.  The
partitioning splits the kernel into ``g = ceil(k/s)`` pieces per side, each
of size ``ks = s``:

* the kernel is zero-padded to a ``(g*ks) x (g*ks)`` grid and cut into
  ``g*g`` sub-kernels of ``ks x ks`` (Fig. 5c);
* sub-kernel ``(i, j)`` scans the input starting at offset ``(i*ks, j*ks)``
  with stride ``s = ks`` — window size equals stride, so adjacent windows
  never overlap and the data for one window is contiguous in the buffer
  (Fig. 5b);
* each sub-kernel yields one partial output map; summing the ``g*g`` maps
  reproduces the original convolution exactly (Fig. 5d).

The zero padding inflates the multiplied-weight grid from ``k*k`` to
``(g*ks)^2`` entries, a modest compute overhead (e.g. 144/121 for the
11x11 / stride-4 AlexNet conv1) in exchange for perfectly aligned,
unit-stride buffer accesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import ScheduleError, ShapeError, check_count

__all__ = [
    "PartitionGeometry",
    "partition_geometry",
    "partition_weights",
    "padded_input_extent",
    "pad_data_for_partition",
]


@dataclass(frozen=True)
class PartitionGeometry:
    """Derived quantities of Equation 2 for one (kernel, stride) pair."""

    kernel: int
    stride: int
    #: pieces per side: g = ceil(k / s)
    groups_per_side: int
    #: sub-kernel size: ks = s
    sub_kernel: int

    @property
    def pieces(self) -> int:
        """Total sub-kernels G = g * g."""
        return self.groups_per_side ** 2

    @property
    def padded_kernel(self) -> int:
        """Side of the zero-padded kernel grid (g * ks >= k)."""
        return self.groups_per_side * self.sub_kernel

    @property
    def pad_overhead(self) -> float:
        """Compute inflation from zero padding: (g*ks)^2 / k^2 >= 1."""
        return self.padded_kernel ** 2 / self.kernel ** 2

    @property
    def sub_window_elements(self) -> int:
        """Data words in one sub-kernel window (ks * ks)."""
        return self.sub_kernel ** 2


@lru_cache(maxsize=256)
def partition_geometry(kernel: int, stride: int) -> PartitionGeometry:
    """Equation 2: ``g = ceil(k/s)``, ``ks = s``.

    Partitioning only makes sense when the stride is smaller than the
    kernel (otherwise windows already do not overlap); a degenerate request
    raises :class:`ScheduleError` so callers fall back to plain intra-kernel.
    """
    check_count(kernel, "kernel", 1, ShapeError)
    check_count(stride, "stride", 1, ShapeError)
    if stride >= kernel:
        raise ScheduleError(
            f"kernel-partitioning needs stride < kernel; got k={kernel}, s={stride}"
        )
    g = math.ceil(kernel / stride)
    return PartitionGeometry(
        kernel=kernel, stride=stride, groups_per_side=g, sub_kernel=stride
    )


def partition_weights(weights: np.ndarray, stride: int) -> np.ndarray:
    """Split a (..., k, k) weight tensor into (..., g*g, ks, ks) sub-kernels.

    Leading axes (e.g. Dout, Din) are preserved; the trailing two spatial
    axes are zero-padded to ``g*ks`` and cut into the Fig. 5(c) grid.  Piece
    ``G = i*g + j`` is the sub-kernel at grid position (row ``i``, col ``j``).
    """
    if weights.ndim < 2:
        raise ShapeError("weight tensor needs at least 2 (spatial) axes")
    k1, k2 = weights.shape[-2], weights.shape[-1]
    if k1 != k2:
        raise ShapeError(f"only square kernels supported, got {k1}x{k2}")
    geom = partition_geometry(k1, stride)
    pk, ks, g = geom.padded_kernel, geom.sub_kernel, geom.groups_per_side
    pad_width = [(0, 0)] * (weights.ndim - 2) + [(0, pk - k1), (0, pk - k2)]
    padded = np.pad(weights, pad_width)
    lead = weights.shape[:-2]
    # reshape to (..., g, ks, g, ks) then regroup the piece axes together
    blocked = padded.reshape(lead + (g, ks, g, ks))
    blocked = np.moveaxis(blocked, -2, -3)  # (..., g, g, ks, ks)
    return blocked.reshape(lead + (g * g, ks, ks))


def padded_input_extent(
    in_extent: int, kernel: int, stride: int, pad: int
) -> Tuple[int, int]:
    """Input extent after conv padding plus partition padding.

    Returns ``(out_extent, padded_extent)`` where ``padded_extent`` is large
    enough that every sub-kernel's scan (offset up to ``(g-1)*ks``, reach
    ``ks``) stays in bounds: ``(out-1)*s + g*ks``.
    """
    geom = partition_geometry(kernel, stride)
    base = in_extent + 2 * pad
    if kernel > base:
        raise ShapeError(f"kernel {kernel} larger than padded input {base}")
    out = (base - kernel) // stride + 1
    needed = (out - 1) * stride + geom.padded_kernel
    return out, max(base, needed)


def pad_data_for_partition(
    data: np.ndarray, kernel: int, stride: int, pad: int
) -> np.ndarray:
    """Zero-pad a (D, H, W) tensor for a partitioned scan (Fig. 5a).

    Applies the layer's own convolution padding symmetrically, then grows the
    bottom/right edge so the farthest sub-kernel offset stays in bounds.
    When no padding is needed at all (``pad == 0`` and the scan already fits)
    the input is returned unchanged — callers only read the result.
    """
    if data.ndim != 3:
        raise ShapeError(f"expected (D, H, W) tensor, got shape {data.shape}")
    _, h, w = data.shape
    _, ph = padded_input_extent(h, kernel, stride, pad)
    _, pw = padded_input_extent(w, kernel, stride, pad)
    if pad == 0 and ph == h and pw == w:
        return data
    padded = np.pad(
        data,
        (
            (0, 0),
            (pad, ph - h - 2 * pad + pad),
            (pad, pw - w - 2 * pad + pad),
        ),
    )
    return padded
