"""The paper's headline aggregates, regenerated as one record.

The abstract and Sec. 5 quote a handful of averages; this driver computes
all of them in one pass so EXPERIMENTS.md and the manifest's ``headline``
claims have a single source of truth:

* conv1: partition vs inter (paper 5.8x) and vs intra (paper 2.1x),
  averaged over the 4 networks and both PE configs;
* best single-layer partition-vs-inter speedup (abstract: "4.0x-8.3x for
  some layers");
* whole-network adaptive vs inter on AlexNet (paper 1.83x) and averaged
  (paper 1.43x), at 16-16;
* average PE energy saving of adaptive-2 vs inter (abstract: 28.04%);
* average on-chip memory (buffer) energy saving (abstract: 90.3%);
* average adap-2 vs adap-1 buffer-traffic reduction (Sec 5.3: 90.13%).

Every whole-network aggregate is measured on the 16-16 array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.adaptive import plan_network
from repro.analysis.metrics import arithmetic_mean
from repro.arch.config import CONFIG_16_16, CONFIG_32_32
from repro.nn.zoo import benchmark_networks
from repro.schemes import make_scheme

__all__ = ["HeadlineNumbers", "headline_numbers", "render_headline"]


@dataclass(frozen=True)
class HeadlineNumbers:
    """Measured values for every quoted aggregate, with the paper's figure."""

    conv1_partition_vs_inter: float  # paper: 5.8
    conv1_partition_vs_intra: float  # paper: 2.1
    best_layer_speedup: float  # paper: 4.0-8.3 band
    alexnet_adaptive_vs_inter: float  # paper: 1.83
    avg_adaptive_vs_inter: float  # paper: 1.43
    avg_pe_energy_saving_pct: float  # paper: 28.04
    avg_memory_energy_saving_pct: float  # paper: 90.3
    avg_adap2_vs_adap1_traffic_pct: float  # paper: 90.13

    PAPER = {
        "conv1_partition_vs_inter": 5.8,
        "conv1_partition_vs_intra": 2.1,
        "best_layer_speedup": 8.3,
        "alexnet_adaptive_vs_inter": 1.83,
        "avg_adaptive_vs_inter": 1.43,
        "avg_pe_energy_saving_pct": 28.04,
        "avg_memory_energy_saving_pct": 90.3,
        "avg_adap2_vs_adap1_traffic_pct": 90.13,
    }


def headline_numbers() -> HeadlineNumbers:
    """Compute every quoted aggregate from the current model."""
    nets = benchmark_networks()
    configs = (CONFIG_16_16, CONFIG_32_32)

    conv1_vs_inter: List[float] = []
    conv1_vs_intra: List[float] = []
    best_layer = 0.0
    for config in configs:
        for net in nets:
            ctx = net.conv1()
            inter = make_scheme("inter").schedule(ctx, config).total_cycles
            intra = make_scheme("intra").schedule(ctx, config).total_cycles
            part = make_scheme("partition").schedule(ctx, config).total_cycles
            conv1_vs_inter.append(inter / part)
            conv1_vs_intra.append(intra / part)
            best_layer = max(best_layer, inter / part)

    runs_inter = {n.name: plan_network(n, CONFIG_16_16, "inter") for n in nets}
    runs_a1 = {n.name: plan_network(n, CONFIG_16_16, "adaptive-1") for n in nets}
    runs_a2 = {n.name: plan_network(n, CONFIG_16_16, "adaptive-2") for n in nets}

    speedups = [
        runs_inter[n.name].total_cycles / runs_a2[n.name].total_cycles
        for n in nets
    ]
    pe_savings = []
    mem_savings = []
    traffic_red = []
    for net in nets:
        e_inter = runs_inter[net.name].energy()
        e_a2 = runs_a2[net.name].energy()
        pe_savings.append(100.0 * (1.0 - e_a2.pe_pj / e_inter.pe_pj))
        mem_savings.append(100.0 * (1.0 - e_a2.buffer_pj / e_inter.buffer_pj))
        traffic_red.append(
            100.0
            * (
                1.0
                - runs_a2[net.name].buffer_accesses
                / runs_a1[net.name].buffer_accesses
            )
        )

    return HeadlineNumbers(
        conv1_partition_vs_inter=arithmetic_mean(conv1_vs_inter),
        conv1_partition_vs_intra=arithmetic_mean(conv1_vs_intra),
        best_layer_speedup=best_layer,
        alexnet_adaptive_vs_inter=(
            runs_inter["alexnet"].total_cycles / runs_a2["alexnet"].total_cycles
        ),
        avg_adaptive_vs_inter=arithmetic_mean(speedups),
        avg_pe_energy_saving_pct=arithmetic_mean(pe_savings),
        avg_memory_energy_saving_pct=arithmetic_mean(mem_savings),
        avg_adap2_vs_adap1_traffic_pct=arithmetic_mean(traffic_red),
    )


def render_headline(measured: HeadlineNumbers) -> str:
    """Paper-vs-measured table of the headline aggregates."""
    from repro.analysis.report import format_table

    rows = []
    labels = {
        "conv1_partition_vs_inter": "conv1: partition vs inter (avg)",
        "conv1_partition_vs_intra": "conv1: partition vs intra (avg)",
        "best_layer_speedup": "best single-layer speedup",
        "alexnet_adaptive_vs_inter": "AlexNet: adaptive vs inter",
        "avg_adaptive_vs_inter": "4-NN avg: adaptive vs inter",
        "avg_pe_energy_saving_pct": "avg PE energy saving (%)",
        "avg_memory_energy_saving_pct": "avg buffer energy saving (%)",
        "avg_adap2_vs_adap1_traffic_pct": "avg adap-2 vs adap-1 traffic (%)",
    }
    for field, label in labels.items():
        rows.append(
            [
                label,
                f"{HeadlineNumbers.PAPER[field]:.2f}",
                f"{getattr(measured, field):.2f}",
            ]
        )
    return "Headline aggregates — paper vs measured\n" + format_table(
        ["metric", "paper", "measured"], rows
    )
