"""Exhaustive per-layer scheme search — the oracle Algorithm 2 approximates.

The paper claims its rule-based selection "ensures the optimal performance";
this module makes that claim testable: for each layer it evaluates every
legal scheme and keeps the best (fewest wall-clock cycles; buffer accesses
break ties, since energy follows traffic).  Tests assert Algorithm 2 matches
the oracle's cycle count on the benchmark networks to within a small margin.

Beyond the paper, the search also supports energy and energy-delay-product
objectives ("this dynamic scheme can optimize performance and minimize
energy consuming simultaneously" — the EDP oracle quantifies how
simultaneous those two really are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.arch.config import AcceleratorConfig
from repro.arch.energy import EnergyModel
from repro.errors import ScheduleError, check_choice
from repro.nn.network import LayerContext, Network
from repro.perf.cache import schedule_cache
from repro.perf.instrument import phase
from repro.schemes.base import ScheduleResult
from repro.schemes.table import CANDIDATES

__all__ = [
    "SearchOutcome",
    "best_scheme_for_layer",
    "best_scheme_name_for_layer",
    "search_network",
    "layer_energy_pj",
    "OBJECTIVES",
]

#: supported search objectives
OBJECTIVES = ("cycles", "energy", "edp")


def layer_energy_pj(result: ScheduleResult, model: EnergyModel) -> float:
    """Total energy of one layer schedule (PE clocked over wall-clock,
    buffer accesses, DRAM), consistent with NetworkRun.energy()."""
    breakdown = model.breakdown(
        operations=int(round(result.total_cycles)),
        accesses=result.accesses,
        dram_words=result.dram_words,
        extra_adds=result.extra_adds,
    )
    return breakdown.total_pj

#: schemes the oracle considers (ideal is a bound, not a real mapping)
CANDIDATE_SCHEMES: Sequence[str] = CANDIDATES


@dataclass(frozen=True)
class SearchOutcome:
    """Winner of the per-layer search, with all evaluated alternatives."""

    layer_name: str
    scheme: str
    result: ScheduleResult
    alternatives: tuple

    @property
    def cycles(self) -> float:
        return self.result.total_cycles


def best_scheme_for_layer(
    ctx: LayerContext,
    config: AcceleratorConfig,
    objective: str = "cycles",
) -> SearchOutcome:
    """Evaluate every legal candidate on ``ctx``; return the winner.

    ``objective`` is one of ``"cycles"`` (the cost table's winner: fewest
    wall-clock cycles, buffer accesses break ties — the paper's notion of
    optimal), ``"energy"`` (least total energy) or ``"edp"`` (energy-delay
    product).  Raises :class:`ScheduleError` only if *no* candidate is
    legal (cannot happen for conv layers since intra-kernel is always
    legal).
    """
    check_choice(objective, "objective", OBJECTIVES)
    table = schedule_cache.table(ctx, config)
    legal = [name for name in CANDIDATE_SCHEMES if table.legal(name)]
    if not legal:
        raise ScheduleError(f"{ctx.name}: no candidate scheme is legal")
    evaluated = tuple(table.result(name, ctx, config) for name in legal)
    if objective == "cycles":
        best = evaluated[legal.index(table.winner(ctx, config))]
    else:
        # the keys end on the scheme name, as the cycle rank does, so ties
        # break by name
        model = EnergyModel(config)
        if objective == "energy":
            key = lambda r: (layer_energy_pj(r, model), r.total_cycles, r.scheme)
        else:
            key = lambda r: (
                layer_energy_pj(r, model) * r.total_cycles,
                r.total_cycles,
                r.scheme,
            )
        best = min(evaluated, key=key)
    return SearchOutcome(
        layer_name=ctx.name,
        scheme=best.scheme,
        result=best,
        alternatives=evaluated,
    )


def best_scheme_name_for_layer(ctx: LayerContext, config: AcceleratorConfig) -> str:
    """The cycle oracle's winning scheme name, memoized in the layer's cost table.

    A replanned layer costs one table probe instead of re-ranking every
    candidate.  The winner is kept per ``overlap_streams`` flag, since
    the ranking reads wall-clock cycles.
    """
    return schedule_cache.table(ctx, config).winner(ctx, config)


def search_network(
    net: Network,
    config: AcceleratorConfig,
    objective: str = "cycles",
) -> List[SearchOutcome]:
    """Run the per-layer oracle over every conv layer of ``net``."""
    with phase("search_network"):
        return [
            best_scheme_for_layer(ctx, config, objective=objective)
            for ctx in net.conv_contexts()
        ]
