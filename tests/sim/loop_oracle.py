"""The functional simulator's loop nests, kept verbatim as tier-1's oracle.

Before the functional simulator had one execution, every path in
:mod:`repro.sim.functional`, :mod:`repro.tiling.unroll` and
:mod:`repro.integrity.abft` also ran as the paper's loop nests: one output
pixel, one window or one kernel tap at a time.  Those loops are kept here
unchanged.  Each maps one loop level to one hardware structure (output
map, window position, kernel tap), so they are the readable statement of
"what the accelerator computes, in what order":

* :func:`reference_conv` — the per-pixel direct convolution;
* :func:`im2col` — the per-pixel unroller, and :func:`conv_via_im2col`
  on top of it;
* :func:`partition_partial_maps` — Algorithm 1's per-window sub-kernel
  scan, and :func:`conv_via_partition`, which accumulates those maps step
  by step;
* :func:`conv_via_inter_improved` — Sec 4.2.2's ``(u, v)`` add-and-store
  order;
* :func:`predicted_checksums` — the ABFT row and column sums, gathered
  one kernel tap at a time.

The three scheme paths always run their stepwise orders and keep the
production hook sites (``on_activation``, ``on_weight``, ``on_psum`` after
every accumulation step, ``on_output``), so a seeded
:class:`~repro.integrity.sdc.SDCInjector` lands on the same live values
on both sides.  The module uses the tiling helpers and the argument
checks, never a production convolution.  Never edit it to follow the
code it checks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.integrity.abft import Checksums
from repro.nn.layers import conv_output_hw
from repro.sim.functional import _check_conv_args
from repro.tiling.partition import (
    pad_data_for_partition,
    partition_geometry,
    partition_weights,
)
from repro.tiling.unroll import pad_input

__all__ = [
    "reference_conv",
    "im2col",
    "conv_via_im2col",
    "partition_partial_maps",
    "conv_via_partition",
    "conv_via_inter_improved",
    "predicted_checksums",
]


def reference_conv(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Direct convolution in the canonical sliding-window order."""
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
        dslice = padded[g * din_g : (g + 1) * din_g]
        for oc in range(g * dout_g, (g + 1) * dout_g):
            kern = weights[oc]
            for oy in range(oh):
                iy = oy * stride
                for ox in range(ow):
                    ix = ox * stride
                    patch = dslice[:, iy : iy + k, ix : ix + k]
                    out[oc, oy, ox] = np.sum(patch * kern)
    if bias is not None:
        out += bias[:, None, None]
    return out


def im2col(data: np.ndarray, kernel: int, stride: int, pad: int = 0) -> np.ndarray:
    """Unroll a (D, H, W) tensor into a (oh*ow, D*k*k) matrix, one output
    pixel's receptive field per row."""
    if data.ndim != 3:
        raise ShapeError(f"expected (D, H, W) tensor, got shape {data.shape}")
    padded = pad_input(data, pad)
    d, h, w = padded.shape
    oh = conv_output_hw(h, kernel, stride, 0)
    ow = conv_output_hw(w, kernel, stride, 0)
    rows = np.empty((oh * ow, d * kernel * kernel), dtype=padded.dtype)
    r = 0
    for oy in range(oh):
        iy = oy * stride
        for ox in range(ow):
            ix = ox * stride
            patch = padded[:, iy : iy + kernel, ix : ix + kernel]
            rows[r] = patch.reshape(-1)
            r += 1
    return rows


def conv_via_im2col(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    inject=None,
) -> np.ndarray:
    """The intra-kernel unrolling scheme: the loop im2col, then one GEMM
    per group with a psum hook after each."""
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
    """The ``g*g`` partial output maps of Fig. 5(d) (single group), one
    non-overlapping sub-kernel window at a time."""
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
    partials = np.zeros(
        (geom.pieces, dout, oh, ow), dtype=np.result_type(data, weights)
    )
    for piece in range(geom.pieces):
        i, j = divmod(piece, g)
        oy0, ox0 = i * ks, j * ks
        # sub-kernel scan: stride == window size, windows never overlap
        for oy in range(oh):
            iy = oy * stride + oy0
            for ox in range(ow):
                ix = ox * stride + ox0
                window = padded[:, iy : iy + ks, ix : ix + ks]
                # one PE operation per (output map chunk): window x sub-kernel
                partials[piece, :, oy, ox] = np.einsum(
                    "dhw,odhw->o", window, sub[:, :, piece]
                )
    return partials


def conv_via_partition(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    inject=None,
) -> np.ndarray:
    """Algorithm 1, stepwise: piece 1's result is stored and each later
    piece's partial map is added onto the running sum (lines 7-8), with a
    psum hook after every step.  ``stride >= kernel`` falls back to the
    direct order, where no psum hook fires."""
    _check_conv_args(data, weights, stride, pad, groups)
    if inject is not None:
        data = inject.on_activation(data)
        weights = inject.on_weight(weights)
    if stride >= weights.shape[-1]:
        out = reference_conv(data, weights, bias, stride, pad, groups)
        if inject is not None:
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
        if inject is not None:
            inject.on_psum(acc, g * pieces, groups * pieces)
        for piece in range(1, partials.shape[0]):
            acc += partials[piece]
            if inject is not None:
                inject.on_psum(acc, g * pieces + piece, groups * pieces)
        pieces_out.append(acc)
    out = np.concatenate(pieces_out, axis=0)
    if bias is not None:
        out += bias[:, None, None]
    if inject is not None:
        inject.on_output(out)
    return out


def conv_via_inter_improved(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    inject=None,
) -> np.ndarray:
    """The improved inter-kernel order (Sec 4.2.2): for each kernel element
    ``(u, v)``, the partial sums of every output pixel and map are
    add-and-stored onto the output buffer, with a psum hook after each."""
    _check_conv_args(data, weights, stride, pad, groups)
    if inject is not None:
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
                if inject is not None:
                    inject.on_psum(
                        out[g * dout_g : (g + 1) * dout_g],
                        (u * k + v) * groups + g,
                        steps_total,
                    )
    if bias is not None:
        out += bias[:, None, None]
    if inject is not None:
        inject.on_output(out)
    return out


def predicted_checksums(
    data_codes: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> Checksums:
    """The ABFT row/column/total checksums from input and weight
    reductions, one kernel tap at a time."""
    if not np.issubdtype(data_codes.dtype, np.integer) or not np.issubdtype(
        weight_codes.dtype, np.integer
    ):
        raise ConfigError("ABFT checksums require integer-code tensors")
    dout = weight_codes.shape[0]
    k = weight_codes.shape[-1]
    s = stride
    din_g = data_codes.shape[0] // groups
    dout_g = dout // groups
    oh = conv_output_hw(data_codes.shape[1] + 2 * pad, k, s, 0)
    ow = conv_output_hw(data_codes.shape[2] + 2 * pad, k, s, 0)
    row = np.zeros((dout, oh), dtype=np.int64)
    col = np.zeros((dout, ow), dtype=np.int64)
    for g in range(groups):
        dslice = data_codes[g * din_g : (g + 1) * din_g].astype(np.int64)
        padded = pad_input(dslice, pad)
        w_g = weight_codes[g * dout_g : (g + 1) * dout_g].astype(np.int64)
        # column reduction: colsum[d, h, v] = sum_ox padded[d, h, v + ox*s]
        colsum = np.empty((din_g, padded.shape[1], k), dtype=np.int64)
        for v in range(k):
            colsum[:, :, v] = padded[:, :, v : v + (ow - 1) * s + 1 : s].sum(
                axis=2
            )
        # gather the rows each (oy, u) pair reads: SR[oy, d, u, v]
        sr = np.empty((oh, din_g, k, k), dtype=np.int64)
        for u in range(k):
            sr[:, :, u, :] = colsum[:, u : u + (oh - 1) * s + 1 : s, :].transpose(
                1, 0, 2
            )
        row[g * dout_g : (g + 1) * dout_g] = np.einsum("yduv,oduv->oy", sr, w_g)
        # row reduction: rowsum[d, u, w] = sum_oy padded[d, u + oy*s, w]
        rowsum = np.empty((din_g, k, padded.shape[2]), dtype=np.int64)
        for u in range(k):
            rowsum[:, u, :] = padded[:, u : u + (oh - 1) * s + 1 : s, :].sum(
                axis=1
            )
        sc = np.empty((ow, din_g, k, k), dtype=np.int64)
        for v in range(k):
            sc[:, :, :, v] = rowsum[:, :, v : v + (ow - 1) * s + 1 : s].transpose(
                2, 0, 1
            )
        col[g * dout_g : (g + 1) * dout_g] = np.einsum("xduv,oduv->ox", sc, w_g)
    if bias_codes is not None:
        b = bias_codes.astype(np.int64)
        row += b[:, None] * ow
        col += b[:, None] * oh
    return Checksums(row=row, col=col, total=row.sum(axis=1))
