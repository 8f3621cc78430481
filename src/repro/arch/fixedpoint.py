"""16-bit fixed-point arithmetic (the paper's PE datapath width).

Table 3 specifies a 16-bit fixed-point datapath, validated "good enough" with
reference to DianNao [8].  This module provides the quantize/dequantize pair
used by the functional simulator so that schedule-equivalence tests can also
be run at datapath precision, plus saturating arithmetic helpers matching
what a hardware MAC would do.

Format: Qm.n two's-complement, default Q7.8 (1 sign bit, 7 integer bits,
8 fraction bits), which covers typical post-normalization activation ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError, check_counts

__all__ = [
    "FixedPointFormat",
    "Q7_8",
    "SaturationStats",
    "quantize",
    "dequantize",
]


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed Qm.n fixed-point format stored in ``total_bits`` bits."""

    total_bits: int = 16
    frac_bits: int = 8

    def __post_init__(self) -> None:
        # a sign bit plus at least one value bit
        check_counts(self, "total_bits", minimum=2)
        check_counts(self, "frac_bits")
        if self.frac_bits >= self.total_bits:
            raise ConfigError(
                f"frac_bits {self.frac_bits} out of range for "
                f"{self.total_bits}-bit format"
            )

    @property
    def scale(self) -> int:
        """Integer units per 1.0 (``2**frac_bits``)."""
        return 1 << self.frac_bits

    @property
    def max_int(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_int(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.max_int / self.scale

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable real value."""
        return self.min_int / self.scale

    @property
    def resolution(self) -> float:
        """Real-value step between adjacent codes."""
        return 1.0 / self.scale


#: The default Q7.8 16-bit format.
Q7_8 = FixedPointFormat(total_bits=16, frac_bits=8)


@dataclass
class SaturationStats:
    """Counts values the quantizer had to clip — a silent-corruption source.

    Quantization saturates out-of-range values without complaint, which is
    the correct hardware behaviour but hides a numerics problem from the
    caller.  Pass an instance to :func:`quantize` to make the clipping
    visible; accumulate across calls to audit a whole network's operands.
    """

    total: int = 0
    saturated_high: int = 0
    saturated_low: int = 0
    by_call: list = field(default_factory=list, repr=False)

    @property
    def saturated(self) -> int:
        return self.saturated_high + self.saturated_low

    @property
    def saturation_rate(self) -> float:
        return self.saturated / self.total if self.total else 0.0

    def update(self, scaled: np.ndarray, fmt: FixedPointFormat) -> None:
        high = int(np.count_nonzero(scaled > fmt.max_int))
        low = int(np.count_nonzero(scaled < fmt.min_int))
        self.total += int(scaled.size)
        self.saturated_high += high
        self.saturated_low += low
        self.by_call.append((int(scaled.size), high, low))

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "saturated_high": self.saturated_high,
            "saturated_low": self.saturated_low,
            "saturation_rate": round(self.saturation_rate, 6),
        }


def quantize(
    values: np.ndarray,
    fmt: FixedPointFormat = Q7_8,
    stats: Optional[SaturationStats] = None,
) -> np.ndarray:
    """Quantize real values to fixed-point integer codes (saturating).

    Returns an ``int64`` array of codes (kept wider than the format so the
    caller can accumulate without immediate overflow, as real MAC datapaths
    keep wide accumulators).  NaN/inf inputs are rejected with a
    :class:`~repro.errors.ConfigError` — silently clipping them would turn a
    numerics bug into plausible-looking saturated codes.  Pass a
    :class:`SaturationStats` to count how many values the clip touched.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        raise ConfigError(
            f"quantize input contains {bad} non-finite value(s) (NaN/inf); "
            f"refusing to fold them into saturated codes"
        )
    scaled = np.rint(arr * fmt.scale)
    if stats is not None:
        stats.update(scaled, fmt)
    return np.clip(scaled, fmt.min_int, fmt.max_int).astype(np.int64)


def dequantize(codes: np.ndarray, fmt: FixedPointFormat = Q7_8) -> np.ndarray:
    """Map integer codes back to real values."""
    return np.asarray(codes, dtype=np.float64) / fmt.scale
