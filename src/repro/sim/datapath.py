"""Bit-exact integer datapath simulation of the 16-bit PE.

The floating-point equivalence tests in :mod:`repro.sim.functional` show the
schemes compute the same *real* function; this module goes one level lower
and executes convolution on the integer datapath the paper's PE actually
has — 16-bit fixed-point operands, full-width products, a wide accumulator,
and a single saturating round back to 16 bits at the output.

Each ``conv_codes_*`` runs the matching :mod:`repro.sim.functional` path on
int64 codes, with the bias aligned to the accumulator, and adds only the PE
output stage (:func:`requantize`).  Without a fault hook every path is the
fused im2col GEMM; the stepwise orders they stand for are checked bit for
bit against the loop nests in ``tests/sim/loop_oracle.py``.  Because
integer addition is associative, the kernel-partitioned (Algorithm 1) and
improved-inter accumulation orders are **bit-identical** to the direct
order on this datapath — no tolerance needed — which is the hardware form
of the paper's Fig. 5(d) claim.  Tests assert exact equality of the output
codes.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.arch.fixedpoint import Q7_8, FixedPointFormat
from repro.sim.functional import (
    conv_via_inter_improved,
    conv_via_partition,
    reference_conv,
)

__all__ = [
    "saturate",
    "requantize",
    "conv_codes_direct",
    "conv_codes_partitioned",
    "conv_codes_inter_improved",
]


def saturate(codes: np.ndarray, fmt: FixedPointFormat = Q7_8) -> np.ndarray:
    """Clamp integer codes into the format's representable range."""
    return np.clip(codes, fmt.min_int, fmt.max_int)


def requantize(
    accumulator: np.ndarray, fmt: FixedPointFormat = Q7_8
) -> np.ndarray:
    """Round a wide product-sum accumulator back to output codes.

    Products of two Qm.n codes carry ``2n`` fraction bits; the output stage
    shifts right by ``n`` with round-half-away (matching :func:`np.rint` on
    the equivalent real value) and saturates.
    """
    acc = np.asarray(accumulator, dtype=np.int64)
    half = 1 << (fmt.frac_bits - 1) if fmt.frac_bits else 0
    shifted = np.where(
        acc >= 0,
        (acc + half) >> fmt.frac_bits,
        -((-acc + half) >> fmt.frac_bits),
    )
    return saturate(shifted, fmt)


def _on_datapath(
    order: Callable[..., np.ndarray],
    data_codes: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray],
    stride: int,
    pad: int,
    fmt: FixedPointFormat,
) -> np.ndarray:
    """Run the functional accumulation ``order`` on int64 codes, then the
    output stage."""
    bias = None
    if bias_codes is not None:
        # bias is a Qm.n code; align it to the 2n-fraction accumulator
        bias = bias_codes.astype(np.int64) << fmt.frac_bits
    data, weights = data_codes.astype(np.int64), weight_codes.astype(np.int64)
    return requantize(order(data, weights, bias, stride, pad), fmt)


def conv_codes_direct(
    data_codes: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    fmt: FixedPointFormat = Q7_8,
) -> np.ndarray:
    """Reference integer convolution: direct window order, wide accumulator."""
    return _on_datapath(
        reference_conv, data_codes, weight_codes, bias_codes, stride, pad, fmt
    )


def conv_codes_partitioned(
    data_codes: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    fmt: FixedPointFormat = Q7_8,
) -> np.ndarray:
    """Integer convolution in Algorithm 1's order (partition, accumulate)."""
    return _on_datapath(
        conv_via_partition, data_codes, weight_codes, bias_codes, stride, pad, fmt
    )


def conv_codes_inter_improved(
    data_codes: np.ndarray,
    weight_codes: np.ndarray,
    bias_codes: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    fmt: FixedPointFormat = Q7_8,
) -> np.ndarray:
    """Integer convolution in the Sec 4.2.2 partial-sum order."""
    return _on_datapath(
        conv_via_inter_improved, data_codes, weight_codes, bias_codes, stride, pad, fmt
    )
