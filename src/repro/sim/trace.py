"""Run records: per-layer schedule results aggregated into network totals.

A :class:`NetworkRun` is what every experiment consumes: the ordered list of
per-layer :class:`~repro.schemes.base.ScheduleResult` records for one
(network, policy, configuration) triple, with totals for cycles, buffer
accesses, off-chip traffic, and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.arch.buffers import AccessCounter
from repro.arch.config import AcceleratorConfig
from repro.arch.energy import EnergyBreakdown, EnergyModel
from repro.schemes.base import ScheduleResult

__all__ = ["NetworkRun"]


@dataclass
class NetworkRun:
    """Aggregated result of scheduling a whole network under one policy."""

    network_name: str
    policy: str
    config: AcceleratorConfig
    layers: List[ScheduleResult] = field(default_factory=list)
    #: extra off-chip words for layout conversion of the raw network input
    input_reorder_words: int = 0

    def append(self, result: ScheduleResult) -> None:
        self.layers.append(result)

    # -- totals -------------------------------------------------------------

    @property
    def total_cycles(self) -> float:
        """Wall-clock cycles: layers execute back to back."""
        extra = self.input_reorder_words / self.config.dram_words_per_cycle
        return sum(r.total_cycles for r in self.layers) + extra

    @property
    def pipelined_cycles(self) -> float:
        """Lower bound with perfect *inter-layer* pipelining.

        total_cycles overlaps compute with streaming only within a layer;
        if layer i+1's DMA could also prefetch behind layer i's compute,
        the whole run would be bounded by whichever engine is busier
        overall: ``max(sum compute, sum stream)``.  The gap between this
        and total_cycles is the head/tail bubble a more aggressive control
        unit could recover (typically a few percent on the benchmarks)."""
        extra = self.input_reorder_words / self.config.dram_words_per_cycle
        compute = float(sum(r.operations for r in self.layers))
        stream = sum(r.stream_cycles for r in self.layers) + extra
        return max(compute, stream)

    @property
    def compute_cycles(self) -> int:
        return sum(r.operations for r in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(r.useful_macs for r in self.layers)

    @property
    def total_extra_adds(self) -> int:
        return sum(r.extra_adds for r in self.layers)

    @property
    def buffer_accesses(self) -> int:
        """Total on-chip buffer word accesses (Fig. 10's metric, in words)."""
        return sum(r.buffer_accesses for r in self.layers)

    @property
    def buffer_access_bits(self) -> int:
        return sum(r.buffer_access_bits for r in self.layers)

    @property
    def dram_words(self) -> int:
        """Accelerator DMA traffic.  The input layout reorder is host-side
        memory-to-memory work, charged in time (total_cycles) but not here."""
        return sum(r.dram_words for r in self.layers)

    def access_totals(self) -> Dict[str, AccessCounter]:
        """Access counters summed per buffer across layers."""
        loads: Dict[str, int] = {}
        stores: Dict[str, int] = {}
        for r in self.layers:
            for name, c in r.accesses.items():
                loads[name] = loads.get(name, 0) + c.loads
                stores[name] = stores.get(name, 0) + c.stores
        return {name: AccessCounter(loads[name], stores[name]) for name in loads}

    @property
    def utilization(self) -> float:
        """Network-level useful-MAC fraction of the multiplier-cycles."""
        peak = self.compute_cycles * self.config.multipliers
        if peak == 0:
            return 0.0
        return self.total_macs / peak

    def milliseconds(self) -> float:
        return self.config.cycles_to_ms(self.total_cycles)

    # -- energy ---------------------------------------------------------------

    def energy(self, model: EnergyModel = None) -> EnergyBreakdown:
        """Energy breakdown of the run.

        PE energy is charged over *wall-clock* cycles, not just compute
        cycles: the synthesized array is clocked (not gated) while the layer
        waits on DMA or host reshape, which is how a memory-bound scheme like
        unrolled-intra on VGG ends up *costing* PE energy relative to
        inter-kernel (the negative entries of Table 5).
        """
        if model is None:
            model = EnergyModel(self.config)
        clocked_cycles = int(round(self.total_cycles))
        return model.breakdown(
            operations=clocked_cycles,
            accesses=self.access_totals(),
            dram_words=self.dram_words,
            extra_adds=self.total_extra_adds,
        )

    def pe_energy_pj(self, model: EnergyModel = None) -> float:
        """PE-array energy alone (the Table 5 metric)."""
        return self.energy(model).pe_pj

    def layer(self, name: str) -> ScheduleResult:
        """Look up one layer's record by name."""
        for r in self.layers:
            if r.layer_name == name:
                return r
        raise KeyError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkRun({self.network_name!r}, policy={self.policy!r}, "
            f"config={self.config.name}, layers={len(self.layers)}, "
            f"cycles={self.total_cycles:.3g})"
        )
