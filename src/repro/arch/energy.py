"""Energy model: per-operation tables standing in for the DC synthesis report.

The paper's Table 5 ("PEs energy reduction") and Fig. 10 (buffer traffic) are
relative comparisons between schemes on the *same* silicon, so what matters
is the activity counts (array cycles, adder operations, buffer word accesses)
multiplied by fixed per-op costs.  The constants below are 45 nm-class
figures (16-bit datapath): a fixed-point multiply is ~0.6 pJ, an add ~0.05 pJ,
an SRAM word access grows with macro size, and DRAM is ~two orders of
magnitude above SRAM.  Absolute joules are not meaningful for the
reproduction — ratios are, and those depend only on the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_real

__all__ = ["EnergyTable", "EnergyBreakdown", "EnergyModel"]


@dataclass(frozen=True)
class EnergyTable:
    """Per-operation energies in picojoules (45 nm, 16-bit words)."""

    mult_pj: float = 0.6
    add_pj: float = 0.05
    #: SRAM access energy for a 1 KB macro; scaled by sqrt(capacity) below.
    sram_base_pj: float = 0.35
    dram_access_pj: float = 320.0

    def __post_init__(self) -> None:
        for name in ("mult_pj", "add_pj", "sram_base_pj", "dram_access_pj"):
            check_real(getattr(self, name), name, gt=0)

    def sram_access_pj(self, capacity_bytes: int) -> float:
        """Word-access energy of an SRAM macro of the given capacity.

        Access energy grows roughly with the square root of macro area
        (bitline/wordline length), the standard CACTI-style scaling.
        """
        check_real(capacity_bytes, "capacity", gt=0)
        kb = capacity_bytes / 1024.0
        return self.sram_base_pj * math.sqrt(max(kb, 1.0))


@dataclass
class EnergyBreakdown:
    """Energy of one schedule, split by component (picojoules)."""

    pe_pj: float = 0.0
    input_buffer_pj: float = 0.0
    output_buffer_pj: float = 0.0
    weight_buffer_pj: float = 0.0
    bias_buffer_pj: float = 0.0
    dram_pj: float = 0.0

    @property
    def buffer_pj(self) -> float:
        """All on-chip buffer energy."""
        return (
            self.input_buffer_pj
            + self.output_buffer_pj
            + self.weight_buffer_pj
            + self.bias_buffer_pj
        )

    @property
    def total_pj(self) -> float:
        return self.pe_pj + self.buffer_pj + self.dram_pj

    def add(self, other: "EnergyBreakdown") -> None:
        self.pe_pj += other.pe_pj
        self.input_buffer_pj += other.input_buffer_pj
        self.output_buffer_pj += other.output_buffer_pj
        self.weight_buffer_pj += other.weight_buffer_pj
        self.bias_buffer_pj += other.bias_buffer_pj
        self.dram_pj += other.dram_pj


class EnergyModel:
    """Maps activity counts to energy for a given accelerator configuration."""

    def __init__(
        self, config: AcceleratorConfig, table: EnergyTable = EnergyTable()
    ) -> None:
        self.config = config
        self.table = table
        self._buffer_access_pj: Dict[str, float] = {
            "input": table.sram_access_pj(config.input_buffer_bytes),
            "output": table.sram_access_pj(config.output_buffer_bytes),
            "weight": table.sram_access_pj(config.weight_buffer_bytes),
            "bias": table.sram_access_pj(config.bias_buffer_bytes),
        }

    def buffer_access_pj(self, buffer_name: str) -> float:
        """Energy per word access for one of the four named buffers."""
        try:
            return self._buffer_access_pj[buffer_name]
        except KeyError:
            raise ConfigError(f"unknown buffer {buffer_name!r}") from None

    def pe_energy_pj(self, operations: int, extra_adds: int = 0) -> float:
        """Energy of the PE array over ``operations`` cycles.

        The array is rigid SIMD: every cycle clocks all ``Tin*Tout``
        multipliers and all adder trees whether or not each lane carries a
        useful value — this is what makes the under-utilized inter-kernel
        scheme expensive on conv1-like layers.  ``extra_adds`` charges the
        additional "add-and-store" adder group of the improved inter-kernel
        scheme (Sec 4.2.2).
        """
        check_real(operations, "operations", ge=0)
        check_real(extra_adds, "extra_adds", ge=0)
        cfg = self.config
        mult = operations * cfg.multipliers * self.table.mult_pj
        tree = operations * cfg.tout * max(0, cfg.tin - 1) * self.table.add_pj
        extra = extra_adds * self.table.add_pj
        return mult + tree + extra

    def buffer_energy_pj(self, accesses: Dict[str, AccessCounter]) -> Dict[str, float]:
        """Per-buffer energy for the given access counters."""
        return {
            name: counter.total * self.buffer_access_pj(name)
            for name, counter in accesses.items()
        }

    def dram_energy_pj(self, words: int) -> float:
        """Energy for ``words`` transferred over the DRAM interface."""
        check_real(words, "word count", ge=0)
        return words * self.table.dram_access_pj

    def breakdown(
        self,
        operations: int,
        accesses: Dict[str, AccessCounter],
        dram_words: int = 0,
        extra_adds: int = 0,
    ) -> EnergyBreakdown:
        """Full energy breakdown for one schedule's activity counts."""
        per_buf = self.buffer_energy_pj(accesses)
        return EnergyBreakdown(
            pe_pj=self.pe_energy_pj(operations, extra_adds=extra_adds),
            input_buffer_pj=per_buf.get("input", 0.0),
            output_buffer_pj=per_buf.get("output", 0.0),
            weight_buffer_pj=per_buf.get("weight", 0.0),
            bias_buffer_pj=per_buf.get("bias", 0.0),
            dram_pj=self.dram_energy_pj(dram_words),
        )
