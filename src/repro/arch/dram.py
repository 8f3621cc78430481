"""Burst-level DRAM model: what data alignment is worth in bandwidth.

The flat ``dram_words_per_cycle`` figure in :class:`AcceleratorConfig` is
the *sustained, unit-stride* rate.  This module models where that number
comes from — and what happens when a scheme's access pattern is not
unit-stride, which is the quantitative backing for the paper's insistence
on layouts that keep each scheme's stream contiguous ("ensures good data
reusability and easy alignment in memory and buffer").

Model: DRAM transfers fixed ``burst_words`` bursts; a stream of ``words``
at access stride ``stride_words`` touches

    bursts = ceil(words * min(stride_words, burst_words) / burst_words)

bursts (a stride >= the burst length wastes the whole burst per word).
Each burst costs ``cycles_per_burst``; a fraction of bursts additionally
pays ``row_miss_penalty`` when the stream hops DRAM rows.

With the defaults, a unit-stride stream sustains 4 words/cycle (matching
the flat model) while a stride-4 stream sustains ~1 word/cycle — a 4x
bandwidth loss purely from misalignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError, check_counts, check_real

__all__ = ["DramModel", "DEFAULT_DRAM"]


@dataclass(frozen=True)
class DramModel:
    """Burst-granular DRAM timing."""

    #: words per burst (a 64-byte burst of 16-bit words)
    burst_words: int = 32
    #: accelerator cycles to deliver one burst (sets peak bandwidth)
    cycles_per_burst: float = 8.0
    #: words per DRAM row (1 KB row of 16-bit words)
    row_words: int = 512
    #: extra cycles when a burst opens a new row
    row_miss_penalty: float = 4.0

    def __post_init__(self) -> None:
        check_counts(self, "burst_words", "row_words", minimum=1)
        check_real(self.cycles_per_burst, "cycles_per_burst", gt=0)
        check_real(self.row_miss_penalty, "row_miss_penalty", ge=0)
        if self.row_words % self.burst_words:
            raise ConfigError("row size must be a multiple of the burst size")

    @property
    def peak_words_per_cycle(self) -> float:
        """Unit-stride sustained bandwidth (row misses amortized)."""
        bursts_per_row = self.row_words / self.burst_words
        cycles_per_row = (
            bursts_per_row * self.cycles_per_burst + self.row_miss_penalty
        )
        return self.row_words / cycles_per_row

    def bursts_for_stream(self, words: int, stride_words: int = 1) -> int:
        """Bursts touched by ``words`` accesses at a fixed stride."""
        check_real(words, "words", ge=0)
        check_real(stride_words, "stride_words", gt=0)
        if words == 0:
            return 0
        useful_per_burst = max(1, self.burst_words // stride_words)
        return math.ceil(words / useful_per_burst)

    def cycles_for_stream(self, words: int, stride_words: int = 1) -> float:
        """Cycles to move ``words`` at the given access stride."""
        bursts = self.bursts_for_stream(words, stride_words)
        if bursts == 0:
            return 0.0
        # consecutive bursts share a row until it is exhausted
        span_words = words * stride_words
        row_misses = max(1, math.ceil(span_words / self.row_words))
        return bursts * self.cycles_per_burst + row_misses * self.row_miss_penalty

    def effective_words_per_cycle(self, words: int, stride_words: int = 1) -> float:
        """Achieved bandwidth for a stream (words per cycle)."""
        cycles = self.cycles_for_stream(words, stride_words)
        return words / cycles if cycles else 0.0

    def alignment_penalty(self, words: int, stride_words: int) -> float:
        """Slowdown of a strided stream vs the same words at unit stride."""
        unit = self.cycles_for_stream(words, 1)
        strided = self.cycles_for_stream(words, stride_words)
        return strided / unit if unit else 1.0


#: defaults calibrated so unit-stride sustains ~4 words/cycle, matching
#: AcceleratorConfig.dram_words_per_cycle
DEFAULT_DRAM = DramModel()
