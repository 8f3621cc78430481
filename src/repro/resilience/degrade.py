"""Degraded-mode replanning: PE mask → smaller array → Algorithm 2 reruns.

Masking PE rows/columns (a manufacturing defect, an aging cell fused off
in the field) shrinks the effective ``Tin x Tout`` array.  The planner
does not need new machinery for this — a degraded chip is just a chip
with a different geometry, so :func:`degraded_config` derives a new
:class:`~repro.arch.config.AcceleratorConfig` via
:meth:`~repro.arch.config.AcceleratorConfig.with_pe` and
:func:`replan_degraded` pushes it back through Algorithm 2 and the
schedule cache (``tin``/``tout`` are part of the cache key, so healthy
and degraded plans never collide).

The interesting output is the *scheme flips*: shrinking ``Tin`` can stop
``Din < Tin`` from holding, flipping a layer from partition-based to
inter-kernel — the adaptive selector absorbing a hardware fault the way
it absorbs network diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.adaptive.planner import choices_for_network, plan_network
from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError
from repro.nn.network import Network
from repro.resilience.faults import PEMask

__all__ = [
    "degraded_config",
    "SchemeFlip",
    "DegradeReport",
    "geometry_flips",
    "replan_degraded",
]


def degraded_config(config: AcceleratorConfig, mask: PEMask) -> AcceleratorConfig:
    """The accelerator with ``mask``'s rows/columns fused off.

    Columns feed inputs (``Tin``), rows are adder trees (``Tout``); the
    derived config is a first-class :class:`AcceleratorConfig`, so caching,
    planning and serving all treat it as just another geometry.
    """
    tin = config.tin - mask.masked_cols
    tout = config.tout - mask.masked_rows
    if tin <= 0:
        raise ConfigError(
            f"mask removes {mask.masked_cols} of {config.tin} PE columns; "
            "at least one input lane must survive"
        )
    if tout <= 0:
        raise ConfigError(
            f"mask removes {mask.masked_rows} of {config.tout} PE rows; "
            "at least one adder tree must survive"
        )
    return config.with_pe(tin, tout)


@dataclass(frozen=True)
class SchemeFlip:
    """One layer whose Algorithm 2 verdict changed under the mask."""

    layer_name: str
    healthy_scheme: str
    degraded_scheme: str
    reason: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "layer": self.layer_name,
            "healthy": self.healthy_scheme,
            "degraded": self.degraded_scheme,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class DegradeReport:
    """Healthy-vs-degraded comparison for one (network, mask) pair."""

    network: str
    policy: str
    mask: PEMask
    healthy_config: AcceleratorConfig
    degraded_cfg: AcceleratorConfig
    flips: Tuple[SchemeFlip, ...]
    healthy_ms: float
    degraded_ms: float

    @property
    def slowdown(self) -> float:
        """Degraded over healthy latency (>= 1 in practice)."""
        return self.degraded_ms / self.healthy_ms if self.healthy_ms else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "network": self.network,
            "policy": self.policy,
            "mask": self.mask.to_dict(),
            "healthy_pe": [self.healthy_config.tin, self.healthy_config.tout],
            "degraded_pe": [self.degraded_cfg.tin, self.degraded_cfg.tout],
            "scheme_flips": [f.to_dict() for f in self.flips],
            "healthy_ms": round(self.healthy_ms, 6),
            "degraded_ms": round(self.degraded_ms, 6),
            "slowdown": round(self.slowdown, 6),
        }


def geometry_flips(
    net: Network,
    base_config: AcceleratorConfig,
    derived_config: AcceleratorConfig,
    policy: str = "adaptive-2",
) -> Tuple[SchemeFlip, ...]:
    """Layers whose Algorithm 2 verdict changes between two geometries.

    The shared core of degraded-mode replanning and chip partitioning
    (:mod:`repro.tenancy`): any *effective geometry* change — PE masks,
    partition carve-outs, buffer reshares — is re-run through the adaptive
    selector, and the interesting output is which layers flipped scheme
    and why.  Both passes go through the schedule cache; distinct configs
    have distinct cache keys, so the base entries are never polluted.
    """
    improved = policy != "adaptive-1"
    base_choices = choices_for_network(net, base_config, improved_inter=improved)
    derived_choices = choices_for_network(
        net, derived_config, improved_inter=improved
    )
    flips: List[SchemeFlip] = []
    for before, after in zip(base_choices, derived_choices):
        if before.scheme != after.scheme:
            flips.append(
                SchemeFlip(
                    layer_name=before.layer_name,
                    healthy_scheme=before.scheme,
                    degraded_scheme=after.scheme,
                    reason=after.reason,
                )
            )
    return tuple(flips)


def replan_degraded(
    net: Network, config: AcceleratorConfig, mask: PEMask
) -> DegradeReport:
    """Re-run Algorithm 2 (``adaptive-2``) and the conv planner under a PE mask.

    Both passes go through the schedule cache; the degraded config's
    distinct ``tin``/``tout`` give it distinct cache keys, so replanning
    never pollutes the healthy entries (and a repeated chaos sweep hits
    the cache on both sides).
    """
    policy = "adaptive-2"
    degraded = degraded_config(config, mask)
    flips = geometry_flips(net, config, degraded, policy)
    healthy_run = plan_network(net, config, policy)
    degraded_run = plan_network(net, degraded, policy)
    return DegradeReport(
        network=net.name,
        policy=policy,
        mask=mask,
        healthy_config=config,
        degraded_cfg=degraded,
        flips=flips,
        healthy_ms=healthy_run.milliseconds(),
        degraded_ms=degraded_run.milliseconds(),
    )
