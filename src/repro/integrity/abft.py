"""ABFT-checksummed convolution: predict, check, localize, recompute.

Huang-Abraham algorithm-based fault tolerance, adapted from matrix
multiply to convolution.  For each output map ``oc`` the scheme predicts
three checksums *before* the convolution runs, from reductions of the
input and the weights alone:

* ``row[oc, oy]``   — the sum over ``ox`` of output row ``oy``;
* ``col[oc, ox]``   — the sum over ``oy`` of output column ``ox``;
* ``total[oc]``     — the sum of the whole map.

Convolution is linear, so each predicted row sum is itself a (1-D)
convolution of column-reduced input with the weights — ``k*(oy+ox)``
extra dot products per map instead of a full second execution.  After the
scheme path runs, the same sums are taken over the *computed* output and
compared.  Everything happens in the fixed-point integer-code domain of
:mod:`repro.sim.datapath`: integer addition is associative and exact, so
the comparison is exact equality and a clean run can never false-positive
(a float checksum would trip on summation-order differences between
schemes — the very differences this repo exists to study).

A mismatch localizes the damage: the flagged (map, row, column) triple of
a single-element corruption (psum or output-stage flip) pins it to at
most two rows; a wide corruption (activation/weight flip smears across a
window of rows and columns) flags the whole map.  Recovery re-executes the
flagged rows from the clean operands by running
:func:`~repro.sim.functional.reference_conv` over the input band they
read — the module has no convolution of its own.  :func:`verified_conv`
packages the whole detect-and-recompute loop and guarantees the recovered
output is bit-identical to ``reference_conv`` on the same codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.arch.fixedpoint import FixedPointFormat, Q7_8, quantize
from repro.errors import ConfigError, check_choice
from repro.integrity.sdc import SDCInjector
from repro.nn.layers import conv_output_hw
from repro.sim.functional import (
    _check_conv_args,
    conv_via_im2col,
    conv_via_inter_improved,
    conv_via_partition,
    reference_conv,
)
from repro.tiling.unroll import pad_input

__all__ = [
    "ABFT_PATHS",
    "Checksums",
    "CheckReport",
    "RecoveryReport",
    "VerifiedConvResult",
    "predicted_checksums",
    "check_output",
    "quantize_conv_operands",
    "recompute_flagged",
    "verified_conv",
    "golden_codes",
]

#: scheme execution paths the verified convolution can drive
ABFT_PATHS = ("partition", "im2col", "inter")

_PATH_FNS = {
    "partition": conv_via_partition,
    "im2col": conv_via_im2col,
    "inter": conv_via_inter_improved,
}


def quantize_conv_operands(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    fmt: FixedPointFormat = Q7_8,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Quantize (data, weights, bias) to the integer-code domain.

    Bias codes are pre-aligned to the accumulator scale (``<< frac_bits``),
    matching :mod:`repro.sim.datapath`, so adding them to raw products is
    exact.  Tensors that are already integer are passed through untouched.
    """
    data_codes = (
        data.astype(np.int64)
        if np.issubdtype(data.dtype, np.integer)
        else quantize(data, fmt)
    )
    weight_codes = (
        weights.astype(np.int64)
        if np.issubdtype(weights.dtype, np.integer)
        else quantize(weights, fmt)
    )
    bias_codes: Optional[np.ndarray] = None
    if bias is not None:
        bias_codes = (
            bias.astype(np.int64)
            if np.issubdtype(bias.dtype, np.integer)
            else quantize(bias, fmt) << fmt.frac_bits
        )
    return data_codes, weight_codes, bias_codes


@dataclass(frozen=True)
class Checksums:
    """Predicted per-map row/column/total sums, in the integer-code domain."""

    row: np.ndarray  # (Dout, oh)
    col: np.ndarray  # (Dout, ow)
    total: np.ndarray  # (Dout,)

    @property
    def extra_macs(self) -> int:
        """Dot-product MACs the prediction cost (for overhead accounting)."""
        return int(self.row.size + self.col.size)


def predicted_checksums(
    data_codes: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> Checksums:
    """Predict the output checksums from input/weight reductions alone.

    The input is column-reduced (summed over the ``ox`` positions each
    kernel column touches) and row-reduced likewise, both gathered through
    strided window views; one small einsum per group then yields every
    row/column sum.  All in int64, so the sums are exact and do not depend
    on their order.
    """
    _check_conv_args(data_codes, weight_codes, stride, pad, groups)
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
        # colsum[d, h, v] = sum_ox padded[d, h, v + ox*s], via one window
        # view over the W axis
        cwin = sliding_window_view(padded, k, axis=2)  # [d, h, x, v]
        colsum = cwin[:, :, : (ow - 1) * s + 1 : s].sum(axis=2, dtype=np.int64)
        # sr[oy, d, u, v] = colsum[d, u + oy*s, v]: the rows each (oy, u) reads
        rwin = sliding_window_view(colsum, k, axis=1)  # [d, y, v, u]
        sr = rwin[:, : (oh - 1) * s + 1 : s].transpose(1, 0, 3, 2)
        row[g * dout_g : (g + 1) * dout_g] = np.einsum("yduv,oduv->oy", sr, w_g)
        # rowsum gathered as [d, w, u]; sc[ox, d, u, v] = rowsum[d, u, v + ox*s]
        hwin = sliding_window_view(padded, k, axis=1)  # [d, y, w, u]
        rowsum = hwin[:, : (oh - 1) * s + 1 : s].sum(axis=1, dtype=np.int64)
        swin = sliding_window_view(rowsum, k, axis=1)  # [d, x, u, v]
        sc = swin[:, : (ow - 1) * s + 1 : s].transpose(1, 0, 2, 3)
        col[g * dout_g : (g + 1) * dout_g] = np.einsum("xduv,oduv->ox", sc, w_g)
    if bias_codes is not None:
        b = bias_codes.astype(np.int64)
        row += b[:, None] * ow
        col += b[:, None] * oh
    return Checksums(row=row, col=col, total=row.sum(axis=1))


@dataclass(frozen=True)
class CheckReport:
    """Computed-vs-predicted comparison: which maps/rows/columns disagree."""

    clean: bool
    flagged_maps: Tuple[int, ...]
    flagged_rows: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    flagged_cols: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def mismatches(self) -> int:
        return sum(len(v) for v in self.flagged_rows.values()) + sum(
            len(v) for v in self.flagged_cols.values()
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "flagged_maps": list(self.flagged_maps),
            "flagged_rows": {str(m): list(r) for m, r in self.flagged_rows.items()},
            "flagged_cols": {str(m): list(c) for m, c in self.flagged_cols.items()},
        }


def check_output(output_codes: np.ndarray, predicted: Checksums) -> CheckReport:
    """Compare the computed output's sums against the predicted checksums."""
    if not np.issubdtype(output_codes.dtype, np.integer):
        raise ConfigError("ABFT check requires an integer-code output")
    actual_row = output_codes.sum(axis=2, dtype=np.int64)
    actual_col = output_codes.sum(axis=1, dtype=np.int64)
    actual_total = actual_row.sum(axis=1)
    row_bad = actual_row != predicted.row
    col_bad = actual_col != predicted.col
    total_bad = actual_total != predicted.total
    map_bad = row_bad.any(axis=1) | col_bad.any(axis=1) | total_bad
    flagged = tuple(int(m) for m in np.flatnonzero(map_bad))
    rows = {
        m: tuple(int(r) for r in np.flatnonzero(row_bad[m])) for m in flagged
    }
    cols = {
        m: tuple(int(c) for c in np.flatnonzero(col_bad[m])) for m in flagged
    }
    return CheckReport(
        clean=not flagged, flagged_maps=flagged, flagged_rows=rows, flagged_cols=cols
    )


@dataclass(frozen=True)
class RecoveryReport:
    """What detect-and-recompute re-executed, and whether it converged."""

    row_recomputes: int
    map_recomputes: int
    recomputed: Tuple[Tuple[int, int], ...]  # (map, row) pairs; row -1 = whole map
    clean_after: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "row_recomputes": self.row_recomputes,
            "map_recomputes": self.map_recomputes,
            "clean_after": self.clean_after,
        }


#: a single-element corruption flags at most this many rows/columns; more
#: means the damage smeared (operand flip) and the whole map is recomputed
_LOCAL_LIMIT = 2


def _recompute_rows(
    out: np.ndarray,
    padded: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray],
    stride: int,
    groups: int,
    maps,
    rows,
) -> None:
    """Re-execute output rows ``rows`` of each map in ``maps`` from the
    clean, padded input codes.

    One :func:`~repro.sim.functional.reference_conv` per group runs all of
    the group's ``maps`` over the input band that the lowest to the highest
    of ``rows`` read; only ``rows`` are written back.
    """
    rows = np.asarray(rows, dtype=np.intp)
    lo, hi = int(rows.min()), int(rows.max())
    din_g = padded.shape[0] // groups
    dout_g = weight_codes.shape[0] // groups
    for g in sorted({oc // dout_g for oc in maps}):
        ocs = np.array([oc for oc in maps if oc // dout_g == g], dtype=np.intp)
        band = padded[
            g * din_g : (g + 1) * din_g,
            lo * stride : hi * stride + weight_codes.shape[-1],
        ]
        fresh = reference_conv(
            band,
            weight_codes[ocs],
            None if bias_codes is None else bias_codes[ocs],
            stride,
        )
        out[np.ix_(ocs, rows)] = fresh[:, rows - lo]


def recompute_flagged(
    out: np.ndarray,
    report: CheckReport,
    data_codes: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray],
    predicted: Checksums,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> RecoveryReport:
    """Recompute the damage `report` localized, in place, and re-check.

    Transient-fault model: the stored operands are clean (a re-read gets
    good data), so re-executing flagged work from them restores the exact
    reference result.
    """
    padded = pad_input(data_codes, pad)
    row_recomputes = 0
    recomputed = []
    whole = []
    for oc in report.flagged_maps:
        rows = report.flagged_rows.get(oc, ())
        cols = report.flagged_cols.get(oc, ())
        if 0 < len(rows) <= _LOCAL_LIMIT and 0 < len(cols) <= _LOCAL_LIMIT:
            row_recomputes += len(rows)
            recomputed.extend((oc, oy) for oy in rows)
            _recompute_rows(
                out, padded, weight_codes, bias_codes, stride, groups, [oc], rows
            )
        else:
            whole.append(oc)
            recomputed.append((oc, -1))
    _recompute_rows(
        out, padded, weight_codes, bias_codes, stride, groups, whole,
        range(out.shape[1]),
    )
    map_recomputes = len(whole)
    after = check_output(out, predicted)
    if not after.clean:
        # the local repair under-reached: a corrupted row whose net change
        # cancelled was never flagged.  Escalate to whole-map recompute.
        map_recomputes += len(after.flagged_maps)
        recomputed.extend((oc, -1) for oc in after.flagged_maps)
        _recompute_rows(
            out, padded, weight_codes, bias_codes, stride, groups,
            after.flagged_maps, range(out.shape[1]),
        )
        after = check_output(out, predicted)
    return RecoveryReport(
        row_recomputes=row_recomputes,
        map_recomputes=map_recomputes,
        recomputed=tuple(recomputed),
        clean_after=after.clean,
    )


@dataclass(frozen=True)
class VerifiedConvResult:
    """Everything one verified convolution produced."""

    output: np.ndarray  # corrected integer codes (accumulator scale)
    raw_output: np.ndarray  # as computed, before any recompute
    predicted: Checksums
    check: CheckReport
    recovery: Optional[RecoveryReport]
    path: str

    @property
    def detected(self) -> bool:
        return not self.check.clean

    @property
    def corrected(self) -> bool:
        return self.recovery is not None and self.recovery.clean_after


def verified_conv(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    path: str = "partition",
    fmt: FixedPointFormat = Q7_8,
    inject: Optional[SDCInjector] = None,
) -> VerifiedConvResult:
    """Run one convolution under the ABFT guard, recovering any corruption.

    Operands are quantized to integer codes (pre-quantized integer tensors
    pass through), checksums are predicted, the chosen scheme ``path``
    executes (optionally under ``inject``), the output is checked, and any
    flagged rows/maps are recomputed from the clean operands.  The returned
    ``output`` is in the wide-accumulator code domain, bit-identical to
    ``reference_conv`` on the same codes whenever recovery converged (or
    the run was clean).
    """
    check_choice(path, "ABFT path", ABFT_PATHS)
    data_codes, weight_codes, bias_codes = quantize_conv_operands(
        data, weights, bias, fmt
    )
    predicted = predicted_checksums(
        data_codes, weight_codes, bias_codes, stride, pad, groups
    )
    raw = _PATH_FNS[path](
        data_codes,
        weight_codes,
        bias_codes,
        stride=stride,
        pad=pad,
        groups=groups,
        inject=inject,
    )
    report = check_output(raw, predicted)
    recovery: Optional[RecoveryReport] = None
    out = raw
    if not report.clean:
        out = raw.copy()
        recovery = recompute_flagged(
            out,
            report,
            data_codes,
            weight_codes,
            bias_codes,
            predicted,
            stride=stride,
            pad=pad,
            groups=groups,
        )
    return VerifiedConvResult(
        output=out,
        raw_output=raw,
        predicted=predicted,
        check=report,
        recovery=recovery,
        path=path,
    )


def golden_codes(
    data: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    fmt: FixedPointFormat = Q7_8,
) -> np.ndarray:
    """The reference convolution on the quantized codes — the recovery target."""
    data_codes, weight_codes, bias_codes = quantize_conv_operands(
        data, weights, bias, fmt
    )
    return reference_conv(
        data_codes,
        weight_codes,
        bias_codes,
        stride=stride,
        pad=pad,
        groups=groups,
    )
