"""Design-space sweep utilities.

The ablation benchmarks and the design-space-exploration example all follow
the same pattern: vary one accelerator parameter, re-plan a network, and
collect totals.  These helpers centralize that pattern so sweeps stay
consistent (same policy handling, same metrics) and trivially composable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adaptive.planner import plan_network
from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_choice, check_real
from repro.nn.network import Network
from repro.perf.instrument import phase
from repro.perf.parallel import parallel_map

__all__ = [
    "SweepPoint",
    "sweep_parameter",
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


def _point(value, config: AcceleratorConfig, run) -> SweepPoint:
    return SweepPoint(
        value=value,
        config_name=config.name,
        total_cycles=run.total_cycles,
        compute_cycles=run.compute_cycles,
        utilization=run.utilization,
        buffer_accesses=run.buffer_accesses,
        dram_words=run.dram_words,
    )


def _sweep_task(payload) -> SweepPoint:
    """Picklable per-grid-point unit of work for the parallel sweep."""
    net, config, policy, include_non_conv, value = payload
    run = plan_network(net, config, policy, include_non_conv=include_non_conv)
    return _point(value, config, run)


def sweep_parameter(
    net: Network,
    base: AcceleratorConfig,
    parameter: str,
    values: Sequence,
    policy: str = "adaptive-2",
    include_non_conv: bool = False,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Re-plan ``net`` for each value of one AcceleratorConfig field.

    ``parameter`` must be a real config field (e.g.
    ``"dram_words_per_cycle"``, ``"input_buffer_bytes"``).  ``jobs`` fans
    the grid points out over a process pool; points come back in ``values``
    order either way.
    """
    field_names = {f.name for f in dataclasses.fields(AcceleratorConfig)}
    check_choice(parameter, "config parameter", sorted(field_names))
    payloads = [
        (
            net,
            dataclasses.replace(base, **{parameter: value}),
            policy,
            include_non_conv,
            value,
        )
        for value in values
    ]
    with phase("sweep_parameter"):
        return parallel_map(_sweep_task, payloads, jobs=jobs)


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
    jobs: Optional[int] = None,
) -> Dict[str, SweepPoint]:
    """Plan ``net`` on every PE shape at (approximately) one multiplier budget."""
    payloads = [
        (net, base.with_pe(tin, tout), policy, False, (tin, tout))
        for tin, tout in pe_shapes_for_budget(budget)
    ]
    with phase("sweep_pe_shapes"):
        points = parallel_map(_sweep_task, payloads, jobs=jobs)
    return {point.config_name: point for point in points}
