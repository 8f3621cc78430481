"""Experiment drivers: one function per table/figure of the paper.

Each driver returns plain data rows (dataclasses) so the claims of
:mod:`repro.analysis.manifest` can check them and
:mod:`repro.analysis.report` can render them.  All drivers are
deterministic and pure-Python — regenerating the full evaluation takes
seconds, not a Verilog simulation farm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.adaptive import plan_network
from repro.arch.config import CONFIG_16_16, CONFIG_32_32, AcceleratorConfig
from repro.baselines.cpu import DEFAULT_CPU, CpuModel
from repro.baselines.zhang import ZHANG_7_64, ZhangFpgaModel
from repro.nn.network import Network
from repro.nn.zoo import benchmark_networks, build
from repro.perf.cache import schedule_cache
from repro.tiling.unroll import unroll_stats

#: the zoo names behind :func:`benchmark_networks`
BENCHMARK_NAMES: Tuple[str, ...] = ("alexnet", "googlenet", "vgg", "nin")

__all__ = [
    "Table1Row",
    "table1_scheme_comparison",
    "Fig3Row",
    "Fig7Row",
    "Fig8Row",
    "Fig9Row",
    "Table4Row",
    "Table5Row",
    "Fig10Row",
    "fig3_unrolling",
    "fig7_conv1",
    "fig8_whole_network",
    "fig9_zhang_comparison",
    "table4_cpu_comparison",
    "table5_pe_energy",
    "fig10_buffer_traffic",
    "BOTH_CONFIGS",
    "FIG8_POLICIES",
]

BOTH_CONFIGS: Tuple[AcceleratorConfig, ...] = (CONFIG_16_16, CONFIG_32_32)


# ---------------------------------------------------------------- Table 1


@dataclass(frozen=True)
class Table1Row:
    """One row of the qualitative scheme-suitability matrix."""

    scheme: str
    suited_layers: str
    advantage: str
    #: a witness layer geometry (k, s, Din) where this scheme wins the
    #: per-layer oracle at 16-16 — makes the qualitative row checkable
    witness: Tuple[int, int, int]


def table1_scheme_comparison() -> List[Table1Row]:
    """The paper's Table 1, with a machine-checkable witness per row.

    Each witness (k, s, Din) names a layer geometry on which the row's
    scheme is the oracle winner; the manifest's ``table1`` claims check it.
    """
    return [
        Table1Row(
            scheme="inter",
            suited_layers="large #input maps and small kernel",
            advantage="implement easily",
            witness=(3, 1, 256),
        ),
        Table1Row(
            scheme="intra",
            suited_layers="kernel = stride",
            advantage="less memory traffic",
            witness=(4, 4, 8),
        ),
        Table1Row(
            scheme="partition",
            suited_layers="big kernel or small #input maps",
            advantage="both of above",
            witness=(11, 4, 3),
        ),
    ]


FIG7_SCHEMES = ("ideal", "inter", "intra", "partition")
FIG8_POLICIES = ("inter", "intra", "partition", "adaptive-1", "adaptive-2")

#: the first five conv layers Fig. 3 plots, per network
FIG3_LAYERS: Dict[str, Sequence[str]] = {
    "alexnet": ("conv1", "conv2", "conv3", "conv4", "conv5"),
    "googlenet": (
        "conv1/7x7_s2",
        "conv2/3x3",
        "inception_3a/3x3",
        "inception_3a/5x5",
        "inception_3b/3x3",
    ),
}


# ---------------------------------------------------------------- Fig. 3


@dataclass(frozen=True)
class Fig3Row:
    network: str
    layer: str
    raw_bits: int
    unrolled_bits: int

    @property
    def factor(self) -> float:
        return self.unrolled_bits / self.raw_bits


def fig3_unrolling(word_bits: int = 16) -> List[Fig3Row]:
    """Raw vs unrolled data size for the Fig. 3 layers (Eq. 1)."""
    rows: List[Fig3Row] = []
    for net_name, layer_names in FIG3_LAYERS.items():
        net = build(net_name)
        for ctx in net.conv_contexts():
            if ctx.name not in layer_names:
                continue
            stats = unroll_stats(ctx.layer, ctx.in_shape)
            rows.append(
                Fig3Row(
                    network=net_name,
                    layer=ctx.name,
                    raw_bits=stats.raw_bits(word_bits),
                    unrolled_bits=stats.unrolled_bits(word_bits),
                )
            )
    return rows


# ---------------------------------------------------------------- Fig. 7


@dataclass(frozen=True)
class Fig7Row:
    config: str
    network: str
    scheme: str
    cycles: float


def fig7_conv1(
    configs: Sequence[AcceleratorConfig] = BOTH_CONFIGS,
    schemes: Sequence[str] = FIG7_SCHEMES,
) -> List[Fig7Row]:
    """Conv1 execution cycles for every (config, network, scheme)."""
    rows: List[Fig7Row] = []
    for config in configs:
        for net in benchmark_networks():
            ctx = net.conv1()
            table = schedule_cache.table(ctx, config)
            for scheme_name in schemes:
                result = table.result(scheme_name, ctx, config)
                rows.append(
                    Fig7Row(config.name, net.name, scheme_name, result.total_cycles)
                )
    return rows


# ---------------------------------------------------------------- Fig. 8


@dataclass(frozen=True)
class Fig8Row:
    config: str
    network: str
    policy: str
    cycles: float


def fig8_whole_network(
    configs: Sequence[AcceleratorConfig] = BOTH_CONFIGS,
    policies: Sequence[str] = FIG8_POLICIES,
) -> List[Fig8Row]:
    """Whole-network cycles under each policy (Fig. 8's five series)."""
    nets = benchmark_networks()
    return [
        Fig8Row(
            config.name, net.name, policy, plan_network(net, config, policy).total_cycles
        )
        for config in configs
        for net in nets
        for policy in policies
    ]


# ---------------------------------------------------------------- Fig. 9


@dataclass(frozen=True)
class Fig9Row:
    design: str
    conv1_ms: float
    whole_ms: float


def fig9_zhang_comparison(
    zhang: ZhangFpgaModel = ZHANG_7_64,
    touts: Sequence[int] = (24, 28, 32),
    frequency_hz: float = 100e6,
) -> List[Fig9Row]:
    """AlexNet vs the Zhang FPGA'15 design at 100 MHz (Fig. 9).

    ``adpa-16-28`` matches [14]'s multiplier budget (448); 16-24 has 14%
    fewer multipliers, 16-32 14% more — the paper's three design points.
    """
    net = build("alexnet")
    rows = [
        Fig9Row(
            design=zhang.name,
            conv1_ms=zhang.layer_ms(net.conv1()),
            whole_ms=zhang.network_ms(net),
        )
    ]
    for tout in touts:
        config = CONFIG_16_16.with_pe(16, tout).with_frequency(frequency_hz)
        run = plan_network(net, config, "adaptive-2")
        rows.append(
            Fig9Row(
                design=f"adpa-16-{tout}",
                conv1_ms=config.cycles_to_ms(run.layers[0].total_cycles),
                whole_ms=run.milliseconds(),
            )
        )
    return rows


# ---------------------------------------------------------------- Table 4


@dataclass(frozen=True)
class Table4Row:
    network: str
    cpu_ms: float
    adap16_ms: float
    adap32_ms: float

    @property
    def speedup16(self) -> float:
        return self.cpu_ms / self.adap16_ms

    @property
    def speedup32(self) -> float:
        return self.cpu_ms / self.adap32_ms


def table4_cpu_comparison(cpu: CpuModel = DEFAULT_CPU) -> List[Table4Row]:
    """Accelerator (1 GHz adaptive) vs the Xeon software baseline."""
    return [
        Table4Row(
            network=net.name,
            cpu_ms=cpu.network_ms(net),
            adap16_ms=plan_network(net, CONFIG_16_16, "adaptive-2").milliseconds(),
            adap32_ms=plan_network(net, CONFIG_32_32, "adaptive-2").milliseconds(),
        )
        for net in benchmark_networks()
    ]


# ---------------------------------------------------------------- Table 5


@dataclass(frozen=True)
class Table5Row:
    network: str
    scheme: str
    reduction_pct: float


def table5_pe_energy(
    config: AcceleratorConfig = CONFIG_16_16,
    networks: Sequence[str] = ("alexnet", "googlenet", "vgg"),
) -> List[Table5Row]:
    """PE energy reduction relative to inter-kernel (Table 5)."""
    rows: List[Table5Row] = []
    for name in networks:
        net = build(name)
        base = plan_network(net, config, "inter").pe_energy_pj()
        for policy in ("intra", "partition", "adaptive-1", "adaptive-2"):
            energy = plan_network(net, config, policy).pe_energy_pj()
            rows.append(
                Table5Row(
                    network=name,
                    scheme=policy,
                    reduction_pct=100.0 * (1.0 - energy / base),
                )
            )
    return rows


# ---------------------------------------------------------------- Fig. 10


@dataclass(frozen=True)
class Fig10Row:
    config: str
    network: str
    policy: str
    access_bits: int


def fig10_buffer_traffic(
    configs: Sequence[AcceleratorConfig] = BOTH_CONFIGS,
    policies: Sequence[str] = FIG8_POLICIES,
) -> List[Fig10Row]:
    """Buffer access counts (in bits, the paper's y-axis) per policy."""
    nets = benchmark_networks()
    return [
        Fig10Row(
            config.name,
            net.name,
            policy,
            plan_network(net, config, policy).buffer_access_bits,
        )
        for config in configs
        for net in nets
        for policy in policies
    ]
