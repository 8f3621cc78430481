"""Functional (numerical) execution of every scheme's loop nest.

The paper's central correctness claim is Fig. 5(d): kernel-partitioning's
``g*g`` partial output maps sum to *exactly* the direct convolution.  This
module executes each scheme's data path with numpy and lets the test suite
assert bit-identical results against a reference convolution — for the
partitioned order (Algorithm 1), the improved inter-kernel partial-sum order
(Sec 4.2.2), and the unrolled (im2col) intra-kernel order.

All functions take planar ``(Din, H, W)`` activations and
``(Dout, Din/groups, k, k)`` weights, mirroring
:class:`~repro.nn.layers.ConvLayer`.

Each path is batched im2col/GEMM over strided window views.  Without an
``inject`` hook the partitioned and improved inter-kernel paths fuse their
accumulation steps into :func:`reference_conv`'s GEMM: on int64 codes
integer addition is associative, so no reordering can change a bit.  With
a hook they run their stepwise orders, so the psum hook sees the live
accumulator after every step.  The paper's loop nests, one output pixel or
kernel tap at a time, are the tier-1 oracle in ``tests/sim/loop_oracle.py``.

Every scheme path (but *not* :func:`reference_conv`, which stays golden)
accepts an optional ``inject`` hook object — duck-typed to
:class:`repro.integrity.sdc.SDCInjector` — with four call sites:

* ``on_activation(data)`` / ``on_weight(weights)`` — called once on the
  raw (pre-padding) operands; return a possibly-corrupted copy;
* ``on_psum(acc, step, steps_total)`` — called after each partial-sum
  accumulation step with the live accumulator (corrupted in place);
* ``on_output(out)`` — called on the final output array after bias.

Hooks let the integrity layer flip single bits at the exact buffer the
fault model names without the numerics code knowing anything about faults.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.integrity.sdc import SDCInjector

from repro.errors import ShapeError, check_count
from repro.nn.layers import ConvLayer, TensorShape, conv_output_hw
from repro.tiling.partition import (
    pad_data_for_partition,
    partition_geometry,
    partition_weights,
)
from repro.tiling.unroll import conv_window_view, im2col, pad_input, window_columns

__all__ = [
    "reference_conv",
    "conv_via_im2col",
    "conv_via_partition",
    "conv_via_inter_improved",
    "partition_partial_maps",
    "random_conv_tensors",
]


def _check_conv_args(
    data: np.ndarray, weights: np.ndarray, stride: int, pad: int, groups: int
) -> None:
    if data.ndim != 3:
        raise ShapeError(f"data must be (Din, H, W), got {data.shape}")
    if weights.ndim != 4:
        raise ShapeError(f"weights must be (Dout, Din/g, k, k), got {weights.shape}")
    dout, din_g, k1, k2 = weights.shape
    if k1 != k2:
        raise ShapeError(f"kernel must be square, got {k1}x{k2}")
    check_count(stride, "stride", 1, ShapeError)
    check_count(pad, "pad", 0, ShapeError)
    check_count(groups, "groups", 1, ShapeError)
    if data.shape[0] % groups or dout % groups:
        raise ShapeError(
            f"groups {groups} must divide Din {data.shape[0]} and Dout {dout}"
        )
    if data.shape[0] // groups != din_g:
        raise ShapeError(
            f"weights expect {din_g} maps per group, data has "
            f"{data.shape[0] // groups}"
        )


def reference_conv(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Direct convolution — the golden reference for every scheme.

    Computed in the operands' result dtype (float64, or int64 on integer
    codes) as one im2col/GEMM per group.
    """
    _check_conv_args(data, weights, stride, pad, groups)
    dout = weights.shape[0]
    k = weights.shape[-1]
    padded = pad_input(data, pad)
    din, h, w = padded.shape
    oh = conv_output_hw(h, k, stride, 0)
    ow = conv_output_hw(w, k, stride, 0)
    out = np.zeros((dout, oh, ow), dtype=np.result_type(data, weights))
    din_g = din // groups
    dout_g = dout // groups
    for g in range(groups):
        cols = window_columns(
            conv_window_view(padded[g * din_g : (g + 1) * din_g], k, stride, oh, ow)
        )  # (oh*ow, din_g*k*k)
        wmat = weights[g * dout_g : (g + 1) * dout_g].reshape(dout_g, -1)
        out[g * dout_g : (g + 1) * dout_g] = (cols @ wmat.T).T.reshape(
            dout_g, oh, ow
        )
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv_via_im2col(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    inject: Optional["SDCInjector"] = None,
) -> np.ndarray:
    """Convolution executed as the intra-kernel unrolling scheme: im2col + GEMM.

    One GEMM per group, with a psum hook after each.
    """
    _check_conv_args(data, weights, stride, pad, groups)
    if inject is not None:
        data = inject.on_activation(data)
        weights = inject.on_weight(weights)
    dout = weights.shape[0]
    k = weights.shape[-1]
    din = data.shape[0]
    din_g = din // groups
    dout_g = dout // groups
    oh = conv_output_hw(data.shape[1] + 2 * pad, k, stride, 0)
    ow = conv_output_hw(data.shape[2] + 2 * pad, k, stride, 0)
    out = np.zeros((dout, oh, ow), dtype=np.result_type(data, weights))
    for g in range(groups):
        dslice = data[g * din_g : (g + 1) * din_g]
        cols = im2col(dslice, k, stride, pad)  # (oh*ow, din_g*k*k)
        wmat = weights[g * dout_g : (g + 1) * dout_g].reshape(dout_g, -1)
        prod = cols @ wmat.T  # (oh*ow, dout_g)
        if inject is not None:
            inject.on_psum(prod, g, groups)
        out[g * dout_g : (g + 1) * dout_g] = prod.T.reshape(dout_g, oh, ow)
    if bias is not None:
        out += bias[:, None, None]
    if inject is not None:
        inject.on_output(out)
    return out


def partition_partial_maps(
    data: np.ndarray,
    weights: np.ndarray,
    stride: int,
    pad: int = 0,
) -> np.ndarray:
    """The ``g*g`` partial output maps of Fig. 5(d) (single group).

    Returns an array of shape ``(G, Dout, oh, ow)``; summing over axis 0
    reproduces the direct convolution.  Exposed separately so tests can
    check the *intermediate* structure the paper draws, not just the sum.

    Each piece is one im2col/GEMM over its non-overlapping sub-kernel scan,
    and all pieces are batched into a single ``matmul``.
    """
    k = weights.shape[-1]
    geom = partition_geometry(k, stride)
    ks = geom.sub_kernel
    g = geom.groups_per_side
    padded = pad_data_for_partition(data, k, stride, pad)
    sub = partition_weights(weights, stride)  # (Dout, Din, G, ks, ks)
    dout = weights.shape[0]
    base_h = data.shape[1] + 2 * pad
    base_w = data.shape[2] + 2 * pad
    oh = conv_output_hw(base_h, k, stride, 0)
    ow = conv_output_hw(base_w, k, stride, 0)
    din = data.shape[0]
    stack = np.empty((geom.pieces, oh * ow, din * ks * ks), dtype=padded.dtype)
    for piece in range(geom.pieces):
        i, j = divmod(piece, g)
        stack[piece] = window_columns(
            conv_window_view(padded, ks, stride, oh, ow, i * ks, j * ks)
        )
    # (G, Din*ks*ks, Dout): piece G's sub-kernels as one GEMM operand
    wstack = np.ascontiguousarray(
        sub.transpose(2, 1, 3, 4, 0).reshape(geom.pieces, din * ks * ks, dout)
    )
    prod = stack @ wstack  # (G, oh*ow, Dout)
    return prod.transpose(0, 2, 1).reshape(geom.pieces, dout, oh, ow)


def conv_via_partition(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    inject: Optional["SDCInjector"] = None,
) -> np.ndarray:
    """Convolution executed by Algorithm 1 (kernel partitioning).

    Follows the paper's accumulation order: piece 1's result is stored, each
    later piece's MAC results are added onto the running sum (lines 7-8).
    Layers with ``stride >= kernel`` cannot be partitioned (windows already
    do not overlap); they execute in the plain sliding-window order, the
    same fallback the planner applies (psum injection hooks do not fire on
    the fallback — there is no multi-piece accumulator to corrupt).

    Without an ``inject`` hook the whole piece accumulation fuses into one
    direct GEMM — bit-identical on integer codes (Fig. 5(d) plus
    associativity).  With a hook the stepwise Algorithm 1 loop runs over
    :func:`partition_partial_maps`, with a psum hook site after each piece,
    so injected faults land on the live accumulators.
    """
    _check_conv_args(data, weights, stride, pad, groups)
    if inject is None:
        return reference_conv(data, weights, bias, stride, pad, groups)
    data = inject.on_activation(data)
    weights = inject.on_weight(weights)
    if stride >= weights.shape[-1]:
        out = reference_conv(data, weights, bias, stride, pad, groups)
        inject.on_output(out)
        return out
    din = data.shape[0]
    dout = weights.shape[0]
    din_g = din // groups
    dout_g = dout // groups
    pieces = partition_geometry(weights.shape[-1], stride).pieces
    pieces_out = []
    for g in range(groups):
        dslice = data[g * din_g : (g + 1) * din_g]
        wslice = weights[g * dout_g : (g + 1) * dout_g]
        partials = partition_partial_maps(dslice, wslice, stride, pad)
        # Algorithm 1: accumulate r_{i/G} onto r_{(i-1)/G} in the output buffer
        acc = partials[0].copy()
        inject.on_psum(acc, g * pieces, groups * pieces)
        for piece in range(1, partials.shape[0]):
            acc += partials[piece]
            inject.on_psum(acc, g * pieces + piece, groups * pieces)
        pieces_out.append(acc)
    out = np.concatenate(pieces_out, axis=0)
    if bias is not None:
        out += bias[:, None, None]
    inject.on_output(out)
    return out


def conv_via_inter_improved(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    inject: Optional["SDCInjector"] = None,
) -> np.ndarray:
    """Convolution in the improved inter-kernel order (Sec 4.2.2).

    Outer loop over kernel elements ``(u, v)``; for each element the
    1/(k*k) partial sums of *all* output pixels and maps are add-and-stored
    onto the output buffer before the next element is visited.

    Without an ``inject`` hook all ``k*k`` add-and-store steps fuse into
    :func:`reference_conv`'s GEMM — bit-identical on integer codes because
    integer addition is associative.  With a hook the stepwise order runs:
    the per-``(u, v)`` psum hook needs the live accumulator after each
    step, which the fused GEMM never materializes.
    """
    _check_conv_args(data, weights, stride, pad, groups)
    if inject is None:
        return reference_conv(data, weights, bias, stride, pad, groups)
    data = inject.on_activation(data)
    weights = inject.on_weight(weights)
    din = data.shape[0]
    dout = weights.shape[0]
    k = weights.shape[-1]
    din_g = din // groups
    dout_g = dout // groups
    padded = pad_input(data, pad)
    oh = conv_output_hw(padded.shape[1], k, stride, 0)
    ow = conv_output_hw(padded.shape[2], k, stride, 0)
    out = np.zeros((dout, oh, ow), dtype=np.result_type(data, weights))
    steps_total = k * k * groups
    for u in range(k):
        for v in range(k):
            # strided view of the input pixels this kernel element touches
            view = padded[
                :,
                u : u + (oh - 1) * stride + 1 : stride,
                v : v + (ow - 1) * stride + 1 : stride,
            ]
            for g in range(groups):
                dslice = view[g * din_g : (g + 1) * din_g]
                wvec = weights[g * dout_g : (g + 1) * dout_g, :, u, v]
                # add-and-store: accumulate the partial sums into "the buffer"
                out[g * dout_g : (g + 1) * dout_g] += np.einsum(
                    "dhw,od->ohw", dslice, wvec
                )
                inject.on_psum(
                    out[g * dout_g : (g + 1) * dout_g],
                    (u * k + v) * groups + g,
                    steps_total,
                )
    if bias is not None:
        out += bias[:, None, None]
    inject.on_output(out)
    return out


def random_conv_tensors(
    layer: ConvLayer,
    in_shape: TensorShape,
    seed: int = 0,
    scale: float = 1.0,
    rng: Optional[np.random.Generator] = None,
):
    """Deterministic random (data, weights, bias) for a conv layer.

    Dtype guarantee: all three tensors are ``float64`` standard normals
    scaled by ``scale`` (``bias`` is ``None`` when the layer has none).
    Determinism: tensors depend only on ``seed`` (an explicit ``rng``
    overrides it) — global numpy seeding is never consulted, so integrity
    tests can reproduce operands from the seed alone.  Passing a shared
    ``rng`` draws from that generator's stream instead, letting callers
    derive many layers' tensors from one seeded source.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    data = rng.standard_normal(in_shape.as_tuple()) * scale
    weights = rng.standard_normal(
        (layer.out_maps, layer.in_maps // layer.groups, layer.kernel, layer.kernel)
    ) * scale
    bias = rng.standard_normal(layer.out_maps) * scale if layer.bias else None
    return data, weights, bias
