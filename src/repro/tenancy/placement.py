"""Cost-aware global placement of tenants onto fleet slots.

Given a heterogeneous fleet (:class:`~repro.tenancy.fleet.FleetSpec`) and
a set of tenant demands, the placer pins each tenant to one slot.  Fit is
judged by the planner itself: a tenant's service time on a slot is the
mix-weighted per-image latency from that slot config's
:class:`~repro.serve.batcher.BatchCoster` at the reference batch size, so
"this small chip is fine for AlexNet but not for VGG" falls out of
Algorithm 2 rather than a hand-written affinity table.

The algorithm is deliberately simple and fully deterministic:

1. **Greedy seeding** — tenants in descending heaviness (offered rate x
   best-case service time) each take the slot minimising
   ``(resulting slot utilisation, service time, slot id)``;
2. **Bounded local search** — single-tenant moves and pairwise swaps that
   strictly improve the objective ``(max slot utilisation, total
   SLO-normalised latency proxy)``, repeated until a fixed point or the
   pass budget runs out.

Ties always break toward the lower slot/tenant id, so the same inputs
place the same way on every run — the rollup JSON is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_real
from repro.serve.batcher import BatchCoster, mix_image_seconds
from repro.serve.workload import DEFAULT_SLO_MS, MixedTenantSpec, TenantSpec
from repro.tenancy.fleet import FleetSpec, Slot

__all__ = [
    "TenantDemand",
    "Placement",
    "place_tenants",
    "demand_from_tenants",
]

#: batch size at which slot fit is judged (the serving default max batch)
REFERENCE_BATCH = 16

#: local-search pass budget; placement must terminate deterministically
MAX_SEARCH_PASSES = 8


@dataclass(frozen=True)
class TenantDemand:
    """One tenant's offered load, as the placer sees it."""

    name: str
    rate_rps: float
    mix: Tuple[Tuple[str, float], ...]
    slo_ms: float = DEFAULT_SLO_MS

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant demand needs a non-empty name")
        owner = f"tenant {self.name!r}: "
        check_real(self.rate_rps, owner + "rate_rps", gt=0)
        if not self.mix:
            raise ConfigError(
                f"tenant {self.name!r}: demand needs a non-empty network mix"
            )
        for network, share in self.mix:
            check_real(share, f"{owner}network {network!r} share", gt=0)
        check_real(self.slo_ms, owner + "slo_ms", gt=0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "rate_rps": round(self.rate_rps, 6),
            "mix": {n: round(s, 6) for n, s in self.mix},
            "slo_ms": round(self.slo_ms, 6),
        }


def demand_from_tenants(
    tenants: Sequence[object], rate_rps: float
) -> List[TenantDemand]:
    """Demands from :class:`TenantSpec` / :class:`MixedTenantSpec` lists.

    ``rate_rps`` is the total offered rate; each tenant gets its
    weight-proportional share, matching what the arrival generators emit.
    """
    check_real(rate_rps, "rate_rps", gt=0)
    specs = list(tenants)
    if not specs:
        raise ConfigError("demand_from_tenants needs at least one tenant")
    total = sum(t.weight for t in specs)
    out: List[TenantDemand] = []
    for t in specs:
        if isinstance(t, MixedTenantSpec):
            mix = t.mix
        elif isinstance(t, TenantSpec):
            mix = ((t.network, 1.0),)
        else:
            raise ConfigError(
                f"expected TenantSpec or MixedTenantSpec, got "
                f"{type(t).__name__}"
            )
        out.append(
            TenantDemand(
                name=t.name,
                rate_rps=rate_rps * t.weight / total,
                mix=mix,
                slo_ms=t.slo_ms,
            )
        )
    return out


class _FitModel:
    """Mix-weighted per-image service seconds, memoized per slot config."""

    def __init__(self, plan_policy: str = "adaptive-2") -> None:
        self.plan_policy = plan_policy
        self._costers: Dict[AcceleratorConfig, BatchCoster] = {}

    def coster(self, config: AcceleratorConfig) -> BatchCoster:
        coster = self._costers.get(config)
        if coster is None:
            coster = self._costers[config] = BatchCoster(
                config, policy=self.plan_policy
            )
        return coster

    def service_s(self, demand: TenantDemand, config: AcceleratorConfig) -> float:
        total_share = sum(share for _, share in demand.mix)
        blend = mix_image_seconds(self.coster(config), demand.mix, REFERENCE_BATCH)
        return blend / total_share


@dataclass
class Placement:
    """The placer's verdict: tenant → slot, plus the fit accounting."""

    fleet: FleetSpec
    demands: List[TenantDemand]
    slot_of: Dict[str, int]
    service_s: Dict[str, Dict[int, float]]
    passes: int

    def slots(self) -> List[Slot]:
        return self.fleet.slots()

    def tenants_on(self, slot_id: int) -> List[str]:
        return sorted(t for t, s in self.slot_of.items() if s == slot_id)

    def slot_utilization(self, slot_id: int) -> float:
        """Offered work over capacity: sum of rate x service on the slot."""
        return sum(
            d.rate_rps * self.service_s[d.name][slot_id]
            for d in self.demands
            if self.slot_of[d.name] == slot_id
        )

    def max_utilization(self) -> float:
        return max(
            (self.slot_utilization(s.slot_id) for s in self.slots()),
            default=0.0,
        )

    def latency_proxy(self) -> float:
        """Sum over tenants of (service on chosen slot) / SLO."""
        return sum(
            self.service_s[d.name][self.slot_of[d.name]] / (d.slo_ms / 1e3)
            for d in self.demands
        )

    def objective(self) -> Tuple[float, float]:
        return (self.max_utilization(), self.latency_proxy())

    def to_dict(self) -> Dict[str, object]:
        slots = self.slots()
        util = {s.slot_id: self.slot_utilization(s.slot_id) for s in slots}
        return {
            "fleet": self.fleet.name,
            "passes": self.passes,
            "max_utilization": round(self.max_utilization(), 6),
            "latency_proxy": round(self.latency_proxy(), 6),
            "assignments": {
                d.name: {
                    "slot": self.slot_of[d.name],
                    "chip": slots[self.slot_of[d.name]].chip_id,
                    "geometry": slots[self.slot_of[d.name]].config.name,
                    "service_ms": round(
                        self.service_s[d.name][self.slot_of[d.name]] * 1e3, 6
                    ),
                }
                for d in sorted(self.demands, key=lambda d: d.name)
            },
            "slot_utilization": {
                str(s.slot_id): round(util[s.slot_id], 6) for s in slots
            },
        }


def place_tenants(
    fleet: FleetSpec,
    demands: Sequence[TenantDemand],
    plan_policy: str = "adaptive-2",
    fit: Optional[_FitModel] = None,
) -> Placement:
    """Deterministic greedy + local-search placement of tenants onto slots."""
    demands = list(demands)
    if not demands:
        raise ConfigError("place_tenants needs at least one tenant demand")
    seen = set()
    for d in demands:
        if d.name in seen:
            raise ConfigError(f"duplicate tenant demand {d.name!r}")
        seen.add(d.name)
    slots = fleet.slots()
    model = fit or _FitModel(plan_policy)
    service: Dict[str, Dict[int, float]] = {
        d.name: {
            s.slot_id: model.service_s(d, s.config) for s in slots
        }
        for d in demands
    }

    # -- greedy seeding: heaviest tenants first ---------------------------
    def heaviness(d: TenantDemand) -> float:
        return d.rate_rps * min(service[d.name].values())

    order = sorted(demands, key=lambda d: (-heaviness(d), d.name))
    slot_util: Dict[int, float] = {s.slot_id: 0.0 for s in slots}
    slot_of: Dict[str, int] = {}
    for d in order:
        best = min(
            slots,
            key=lambda s: (
                slot_util[s.slot_id] + d.rate_rps * service[d.name][s.slot_id],
                service[d.name][s.slot_id],
                s.slot_id,
            ),
        )
        slot_of[d.name] = best.slot_id
        slot_util[best.slot_id] += d.rate_rps * service[d.name][best.slot_id]

    placement = Placement(
        fleet=fleet,
        demands=demands,
        slot_of=slot_of,
        service_s=service,
        passes=0,
    )

    # -- bounded local search: moves then swaps, strictly improving -------
    names = sorted(slot_of)
    passes = 0
    improved = True
    while improved and passes < MAX_SEARCH_PASSES:
        improved = False
        passes += 1
        current = placement.objective()
        for name in names:
            home = slot_of[name]
            for s in slots:
                if s.slot_id == home:
                    continue
                slot_of[name] = s.slot_id
                candidate = placement.objective()
                if candidate < current:
                    current = candidate
                    home = s.slot_id
                    improved = True
                else:
                    slot_of[name] = home
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                sa, sb = slot_of[a], slot_of[b]
                if sa == sb:
                    continue
                slot_of[a], slot_of[b] = sb, sa
                candidate = placement.objective()
                if candidate < current:
                    current = candidate
                    improved = True
                else:
                    slot_of[a], slot_of[b] = sa, sb
    placement.passes = passes
    return placement
