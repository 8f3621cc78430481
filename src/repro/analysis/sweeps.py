"""Design-space sweep over PE-array shapes.

The design-space-exploration example re-plans a network on every
(Tin, Tout) shape near one multiplier budget; these helpers enumerate the
shapes and keep each plan's totals as a :class:`SweepPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.adaptive.planner import plan_network
from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_real
from repro.nn.network import Network
from repro.perf.instrument import phase

__all__ = [
    "SweepPoint",
    "sweep_pe_shapes",
    "pe_shapes_for_budget",
]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: the varied value and the resulting totals."""

    value: object
    config_name: str
    total_cycles: float
    compute_cycles: int
    utilization: float
    buffer_accesses: int
    dram_words: int

    def milliseconds(self, frequency_hz: float) -> float:
        return self.total_cycles / frequency_hz * 1e3


def pe_shapes_for_budget(
    budget: int,
    tolerance: float = 0.125,
    widths: Sequence[int] = (4, 8, 16, 32, 64, 128),
) -> List[Tuple[int, int]]:
    """(Tin, Tout) shapes whose multiplier count is within tolerance of budget."""
    check_real(budget, "budget", gt=0)
    shapes = [
        (tin, tout)
        for tin in widths
        for tout in widths
        if abs(tin * tout - budget) / budget <= tolerance
    ]
    if not shapes:
        raise ConfigError(
            f"no (Tin, Tout) shape within {tolerance:.0%} of {budget} multipliers"
        )
    return shapes


def sweep_pe_shapes(
    net: Network,
    base: AcceleratorConfig,
    budget: int,
    policy: str = "adaptive-2",
) -> Dict[str, SweepPoint]:
    """Plan ``net`` on every PE shape at (approximately) one multiplier budget."""
    points = {}
    with phase("sweep_pe_shapes"):
        for tin, tout in pe_shapes_for_budget(budget):
            config = base.with_pe(tin, tout)
            run = plan_network(net, config, policy)
            points[config.name] = SweepPoint(
                value=(tin, tout),
                config_name=config.name,
                total_cycles=run.total_cycles,
                compute_cycles=run.compute_cycles,
                utilization=run.utilization,
                buffer_accesses=run.buffer_accesses,
                dram_words=run.dram_words,
            )
    return points
