"""Traffic forecasts: the demand side of a capacity plan.

A :class:`ForecastSpec` is a small, frozen, picklable description of the
traffic a deployment must absorb — tenant mixes with per-tenant SLOs plus
an arrival shape (steady Poisson or a diurnal day/night cycle).
:meth:`ForecastSpec.requests` materializes it into the concrete request
list through the seeded generators in :mod:`repro.serve.workload`, so the
same spec always yields the identical workload.

The spec-not-requests split matters for the planner's process fan-out: a
worker evaluating one candidate receives the few-hundred-byte spec and
regenerates the request stream locally (memoized per process), instead of
every work item pickling a stream of tens of thousands of requests across
the pipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError, check_choice, check_counts, check_real
from repro.serve.workload import (
    Arrivals,
    MixedTenantSpec,
    mixed_arrivals,
    mixed_diurnal_arrivals,
    parse_tenant_mix,
)

__all__ = ["FORECAST_KINDS", "ForecastSpec"]

FORECAST_KINDS = ("steady", "diurnal")


@dataclass(frozen=True)
class ForecastSpec:
    """One deterministic traffic forecast.

    ``kind="steady"`` is Poisson at ``rate`` for ``duration_s``;
    ``kind="diurnal"`` sweeps the sinusoidal day/night cycle from ``rate``
    (trough) to ``peak_rate`` (crest) over ``duration_s`` simulated
    seconds with ``day_s`` seconds per day.  Tenants carry their own
    network mixes and SLOs (:class:`~repro.serve.workload.MixedTenantSpec`).
    """

    tenants: Tuple[MixedTenantSpec, ...]
    rate: float
    duration_s: float
    kind: str = "steady"
    peak_rate: float = 0.0
    day_s: float = 86400.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_choice(self.kind, "forecast kind", FORECAST_KINDS)
        if not self.tenants:
            raise ConfigError("forecast needs at least one tenant")
        check_real(self.rate, "forecast rate", gt=0)
        check_real(self.duration_s, "forecast duration_s", gt=0)
        check_counts(self, "seed", minimum=None, owner="forecast ")
        if self.kind == "diurnal":
            if self.peak_rate < self.rate:
                raise ConfigError(
                    f"diurnal forecast needs peak_rate >= rate, got "
                    f"{self.peak_rate!r} < {self.rate!r}"
                )
            check_real(self.peak_rate, "forecast peak_rate", gt=0)
            check_real(self.day_s, "forecast day_s", gt=0)

    @classmethod
    def parse(
        cls,
        mix: str,
        rate: float,
        duration_s: float,
        kind: str = "steady",
        peak_rate: float = 0.0,
        day_s: float = 86400.0,
        slo_ms: float = 250.0,
        seed: int = 0,
    ) -> "ForecastSpec":
        """Build a spec from the CLI tenant-mix grammar (see ``parse_tenant_mix``)."""
        return cls(
            tenants=tuple(parse_tenant_mix(mix, slo_ms=slo_ms)),
            rate=rate,
            duration_s=duration_s,
            kind=kind,
            peak_rate=peak_rate,
            day_s=day_s,
            seed=seed,
        )

    # -- demand-side aggregates the bounds need ---------------------------

    @property
    def max_slo_s(self) -> float:
        """The most lenient tenant deadline (the bound's completion slack)."""
        return max(t.slo_ms for t in self.tenants) / 1e3

    def network_shares(self) -> List[Tuple[str, float]]:
        """Expected fraction of traffic per network, tenant mixes folded in.

        Sorted by network name; shares sum to 1.  This is what the
        analytic capacity bound weights per-network service times by.
        """
        tenant_total = sum(t.weight for t in self.tenants)
        shares: Dict[str, float] = {}
        for tenant in self.tenants:
            mix_total = sum(share for _, share in tenant.mix)
            for network, share in tenant.mix:
                shares[network] = shares.get(network, 0.0) + (
                    tenant.weight / tenant_total
                ) * (share / mix_total)
        return sorted(shares.items())

    def requests(self) -> Arrivals:
        """Materialize the concrete, deterministic request stream."""
        if self.kind == "steady":
            return mixed_arrivals(
                self.rate, self.duration_s, list(self.tenants), seed=self.seed
            )
        return mixed_diurnal_arrivals(
            self.rate,
            self.peak_rate,
            self.duration_s / self.day_s,
            list(self.tenants),
            seed=self.seed,
            day_s=self.day_s,
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "rate_rps": round(self.rate, 6),
            "duration_s": round(self.duration_s, 6),
            "seed": self.seed,
            "tenants": [
                {
                    "name": t.name,
                    "mix": [[n, round(s, 6)] for n, s in t.mix],
                    "weight": round(t.weight, 6),
                    "slo_ms": round(t.slo_ms, 6),
                }
                for t in self.tenants
            ],
        }
        if self.kind == "diurnal":
            out["peak_rate_rps"] = round(self.peak_rate, 6)
            out["day_s"] = round(self.day_s, 6)
        return out
