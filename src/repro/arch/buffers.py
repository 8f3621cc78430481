"""On-chip buffer model: capacities and access accounting.

The paper's energy argument (Sec 4.1.2, Table 5, Fig 10) rests on *counting
buffer accesses* per scheme: inter-kernel reloads both data and weights every
operation, intra-kernel holds one side resident, and the improved inter-kernel
trades extra output-buffer stores for far fewer input loads.  This module
provides the counters those models report, plus capacity checks used by
:mod:`repro.tiling.fit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.errors import CapacityError, ScheduleError, check_real

__all__ = ["AccessCounter", "Buffer", "BufferSet"]


@dataclass(frozen=True)
class AccessCounter:
    """Load/store word counts for one buffer: an immutable, non-negative value."""

    loads: int = 0
    stores: int = 0

    def __post_init__(self) -> None:
        if self.loads < 0 or self.stores < 0:
            raise ScheduleError(f"access counts must be non-negative: {self!r}")

    @property
    def total(self) -> int:
        return self.loads + self.stores


@dataclass
class Buffer:
    """A single on-chip SRAM: capacity in words plus an access counter."""

    name: str
    capacity_words: int
    counter: AccessCounter = field(default_factory=AccessCounter)

    def __post_init__(self) -> None:
        check_real(self.capacity_words, f"buffer {self.name!r} capacity", gt=0)

    def fits(self, words: int) -> bool:
        """Whether a working set of ``words`` fits entirely on chip."""
        return words <= self.capacity_words

    def require(self, words: int) -> None:
        """Raise :class:`CapacityError` if ``words`` cannot fit."""
        if not self.fits(words):
            raise CapacityError(
                f"{self.name}: working set of {words} words exceeds "
                f"capacity {self.capacity_words}"
            )

    def load(self, words: int) -> None:
        """Record ``words`` read from this buffer into the PE array."""
        check_real(words, "load word count", ge=0)
        self.counter = AccessCounter(self.counter.loads + words, self.counter.stores)

    def store(self, words: int) -> None:
        """Record ``words`` written into this buffer."""
        check_real(words, "store word count", ge=0)
        self.counter = AccessCounter(self.counter.loads, self.counter.stores + words)


class BufferSet:
    """The accelerator's four buffers (Table 3) with shared accounting."""

    def __init__(
        self,
        input_words: int,
        output_words: int,
        weight_words: int,
        bias_words: int,
    ) -> None:
        self.input = Buffer("input", input_words)
        self.output = Buffer("output", output_words)
        self.weight = Buffer("weight", weight_words)
        self.bias = Buffer("bias", bias_words)

    @classmethod
    def from_config(cls, config) -> "BufferSet":
        """Build from an :class:`~repro.arch.config.AcceleratorConfig`."""
        return cls(
            input_words=config.input_buffer_bytes // config.word_bytes,
            output_words=config.output_buffer_bytes // config.word_bytes,
            weight_words=config.weight_buffer_bytes // config.word_bytes,
            bias_words=config.bias_buffer_bytes // config.word_bytes,
        )

    def __iter__(self) -> Iterator[Buffer]:
        return iter((self.input, self.output, self.weight, self.bias))

    def totals(self) -> Dict[str, AccessCounter]:
        """Per-buffer access counters keyed by buffer name."""
        return {b.name: b.counter for b in self}

    @property
    def total_accesses(self) -> int:
        """Grand total of load+store word accesses across all buffers."""
        return sum(b.counter.total for b in self)

    def reset(self) -> None:
        """Zero all counters (capacities are unchanged)."""
        for b in self:
            b.counter = AccessCounter()
