"""Ablation and model-validation drivers: the evaluation beyond the paper.

Like :mod:`repro.analysis.experiments`, each driver returns dataclass rows;
:mod:`repro.analysis.manifest` states the claims checked over them.  Every
driver plans on the 16-16 array.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.adaptive import plan_batch, plan_network
from repro.adaptive.search import best_scheme_for_layer, layer_energy_pj, search_network
from repro.adaptive.selector import algorithm2
from repro.arch.config import CONFIG_16_16, MB
from repro.arch.dram import DEFAULT_DRAM
from repro.arch.energy import EnergyModel
from repro.errors import ScheduleError
from repro.isa.compiler import compile_network
from repro.nn.network import standalone_conv
from repro.nn.zoo import benchmark_networks, build
from repro.schemes import make_scheme
from repro.schemes.base import group_geometry
from repro.sim.event import simulate_run
from repro.sim.loopnest import enumerate_inter, enumerate_intra, enumerate_partition
from repro.sim.machine import Machine
from repro.tiling.layout import Layout

__all__ = [
    "ablation_alignment", "ablation_batching", "ablation_buffer_size",
    "ablation_dram_bandwidth", "ablation_energy_objective", "ablation_overlap",
    "ablation_pe2d", "ablation_selector", "model_validation",
]

BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
BUFFER_SIZES_MB = (0.5, 1, 2, 4, 8, 16)
DRAM_RATES = (0.5, 1, 2, 4, 8, 16, 32)  # words per cycle


@dataclass(frozen=True)
class AlignmentRow:
    network: str
    matched_dma_cycles: float
    mismatched_dma_cycles: float
    flat_dma_cycles: float  # the flat 4 words/cycle model, same plan


def _burst_dma_cycles(net, run, matched: bool) -> float:
    contexts = {c.name: c for c in net.conv_contexts()}
    total = 0.0
    for r in run.layers:
        shape = contexts[r.layer_name].in_shape
        if matched:
            stride = 1
        elif r.input_layout is Layout.INTER:
            # wants depth-fastest, stored planar: depth words a map apart
            stride = shape.height * shape.width
        else:
            # wants planar, stored depth-interleaved: pixels Din apart
            stride = shape.depth
        # weights and the output drain stream in storage order
        input_words = r.accesses["input"].stores
        total += DEFAULT_DRAM.cycles_for_stream(input_words, stride)
        total += DEFAULT_DRAM.cycles_for_stream(r.dram_words - input_words, 1)
    return total


def ablation_alignment() -> List[AlignmentRow]:
    """What Algorithm 2's layout handoff (lines 4-5) is worth: adaptive-2's
    DMA cycles on the burst-level DRAM model with every input stream
    unit-stride (matched layouts) or strided by the layout mismatch."""
    rows = []
    for net in benchmark_networks():
        run = plan_network(net, CONFIG_16_16, "adaptive-2")
        rows.append(AlignmentRow(
            net.name,
            _burst_dma_cycles(net, run, True),
            _burst_dma_cycles(net, run, False),
            sum(r.dma_cycles for r in run.layers),
        ))
    return rows


@dataclass(frozen=True)
class BatchingRow:
    network: str
    batch_size: int
    images_per_second: float


def ablation_batching() -> List[BatchingRow]:
    """Full-network adaptive-2 throughput per batch size on FC-heavy
    AlexNet and FC-free NiN: a batch keeps each FC weight tile resident."""
    rows = []
    for name in ("alexnet", "nin"):
        net = build(name)
        for b in BATCH_SIZES:
            ips = plan_batch(net, CONFIG_16_16, batch_size=b).images_per_second()
            rows.append(BatchingRow(name, b, ips))
    return rows


@dataclass(frozen=True)
class BufferSizeRow:
    network: str
    policy: str
    buffer_mb: float
    cycles: float


def ablation_buffer_size() -> List[BufferSizeRow]:
    """Cycles with the input and output buffers swept from 0.5 to 16 MB,
    for the adaptive plan and for fixed (unrolled) intra."""
    rows = []
    for name in ("vgg", "alexnet"):
        net = build(name)
        for policy in ("adaptive-2", "intra"):
            for size_mb in BUFFER_SIZES_MB:
                config = dataclasses.replace(
                    CONFIG_16_16,
                    input_buffer_bytes=int(size_mb * MB),
                    output_buffer_bytes=int(size_mb * MB),
                )
                cycles = plan_network(net, config, policy).total_cycles
                rows.append(BufferSizeRow(name, policy, size_mb, cycles))
    return rows


@dataclass(frozen=True)
class DramBandwidthRow:
    network: str
    words_per_cycle: float
    total_cycles: float
    compute_cycles: float


def ablation_dram_bandwidth() -> List[DramBandwidthRow]:
    """adaptive-2 cycles per sustained DMA rate: where each network turns
    from memory-bound to its compute floor."""
    rows = []
    for name in ("alexnet", "vgg"):
        net = build(name)
        for rate in DRAM_RATES:
            config = dataclasses.replace(CONFIG_16_16, dram_words_per_cycle=rate)
            run = plan_network(net, config, "adaptive-2")
            rows.append(DramBandwidthRow(name, rate, run.total_cycles, run.compute_cycles))
    return rows


@dataclass(frozen=True)
class ObjectiveRow:
    network: str
    objective: str
    cycles: float
    energy_pj: float


def ablation_energy_objective() -> List[ObjectiveRow]:
    """Whole-network cycles and energy of the per-layer oracle under each
    objective: is performance-optimal also energy-optimal?"""
    model = EnergyModel(CONFIG_16_16)
    rows = []
    for net in benchmark_networks():
        for objective in ("cycles", "energy", "edp"):
            outcomes = search_network(net, CONFIG_16_16, objective=objective)
            cycles = sum(o.result.total_cycles for o in outcomes)
            energy = sum(layer_energy_pj(o.result, model) for o in outcomes)
            rows.append(ObjectiveRow(net.name, objective, cycles, energy))
    return rows


@dataclass(frozen=True)
class OverlapRow:
    network: str
    policy: str
    overlapped_cycles: float
    serialized_cycles: float


def ablation_overlap() -> List[OverlapRow]:
    """Cycles with compute overlapping the DMA/reshape streams (double
    buffering) and serialized against them (``overlap_streams=False``)."""
    serial = dataclasses.replace(CONFIG_16_16, overlap_streams=False)
    rows = []
    for net in benchmark_networks():
        for policy in ("adaptive-2", "intra"):
            overlapped = plan_network(net, CONFIG_16_16, policy).total_cycles
            serialized = plan_network(net, serial, policy).total_cycles
            rows.append(OverlapRow(net.name, policy, overlapped, serialized))
    return rows


@dataclass(frozen=True)
class Pe2dRow:
    network: str
    pe2d_cycles: float
    adaptive_cycles: float


def ablation_pe2d() -> List[Pe2dRow]:
    """Conv cycles of the ShiDianNao-style 2D-PE mesh (Sec 4.1.2) and of
    the adaptive plan on the same multiplier budget."""
    scheme = make_scheme("pe2d")
    rows = []
    for net in benchmark_networks():
        pe2d = sum(scheme.schedule(c, CONFIG_16_16).total_cycles for c in net.conv_contexts())
        adaptive = plan_network(net, CONFIG_16_16, "adaptive-2")
        rows.append(Pe2dRow(net.name, pe2d, sum(r.total_cycles for r in adaptive.layers)))
    return rows


@dataclass(frozen=True)
class SelectorRow:
    network: str
    alpha: float
    cycles: float
    oracle_cycles: float  # the exhaustive per-layer oracle, same network


def _rule_cycles(net, config, alpha: float) -> float:
    """Total conv cycles under Algorithm 2 with ``Din < alpha * Tin``."""
    total = 0.0
    for ctx in net.conv_contexts():
        name = algorithm2(group_geometry(ctx), alpha * config.tin)
        try:
            total += make_scheme(name).schedule(ctx, config).total_cycles
        except ScheduleError:
            total += make_scheme("intra").schedule(ctx, config).total_cycles
    return total


def ablation_selector() -> List[SelectorRow]:
    """Algorithm 2 with its partition threshold scaled by alpha (0: never
    partition; inf: partition wherever legal) against the oracle."""
    rows = []
    for net in benchmark_networks():
        oracle = sum(
            best_scheme_for_layer(ctx, CONFIG_16_16).result.total_cycles
            for ctx in net.conv_contexts()
        )
        for alpha in (0.0, 0.5, 1.0, 2.0, float("inf")):
            cycles = _rule_cycles(net, CONFIG_16_16, alpha)
            rows.append(SelectorRow(net.name, alpha, cycles, oracle))
    return rows


@dataclass(frozen=True)
class ValidationRow:
    check: str  # parity, loopnest or pipeline
    case: str
    metric: str
    value: float


def model_validation() -> List[ValidationRow]:
    """The substrate checking itself.  ``parity``: executing AlexNet's
    compiled macro program minus the analytical totals.  ``loopnest``:
    enumerated vs analytical schedules on a scaled conv1.  ``pipeline``:
    the event-driven double-buffered pipeline over the analytical
    ``max(compute, stream)`` cycles, by pass depth."""
    config = CONFIG_16_16
    rows = []
    net = build("alexnet")
    for policy in ("ideal", "inter", "intra", "partition", "adaptive-2"):
        planned = plan_network(net, config, policy)
        executed = Machine(config).execute(compile_network(net, config, policy))
        for metric, value in (
            ("cycles", executed.total_cycles - planned.total_cycles),
            ("accesses", executed.buffer_accesses - planned.buffer_accesses),
            ("dram_words", executed.dram_words - planned.dram_words),
        ):
            rows.append(ValidationRow("parity", policy, metric, value))

    ctx = standalone_conv(in_maps=3, out_maps=8, kernel=11, stride=4, hw=39)
    for scheme, enumerate_ops in (
        ("inter", enumerate_inter),
        ("intra", enumerate_intra),
        ("partition", enumerate_partition),
    ):
        ops = list(enumerate_ops(ctx, config))
        for metric, value in (
            ("analytical_ops", make_scheme(scheme).schedule(ctx, config).operations),
            ("enumerated_ops", len(ops)),
            ("mac_delta", sum(o.useful_macs for o in ops) - ctx.macs),
        ):
            rows.append(ValidationRow("loopnest", scheme, metric, value))

    for net in benchmark_networks():
        planned = plan_network(net, config, "adaptive-2")
        for passes in (1, 4, 16, 64):
            ratio = simulate_run(planned, passes) / planned.total_cycles
            rows.append(ValidationRow("pipeline", net.name, f"{passes}-pass", ratio))
    return rows
