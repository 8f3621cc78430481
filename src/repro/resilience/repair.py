"""Cluster repair: losing a pipeline chip → rebalance over the survivors.

A layer-pipelined deployment (:mod:`repro.cluster.pipeline`) that loses a
chip has two problems: the stage that died must run somewhere, and the
remaining stages are now unbalanced.  Repair re-runs the DP bottleneck
balancer over the surviving chip count — the same
:func:`~repro.cluster.pipeline.partition_dp` used at deployment time — and
charges the *cost of getting there*: every layer whose physical chip
changed must have its weights re-shipped, and that traffic goes through
the same :class:`~repro.cluster.link.LinkSpec` that prices the steady-state
activation handoffs.

The output distinguishes the one-time cost (``rebalance_s``, the outage
contribution) from the permanent cost (``throughput_ratio``, the repaired
pipeline's throughput relative to healthy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.cluster.link import LinkSpec
from repro.cluster.pipeline import PipelinePlan, plan_pipeline
from repro.errors import ConfigError, check_count
from repro.nn.network import Network

__all__ = ["RepairPlan", "repair_pipeline"]


@dataclass(frozen=True)
class RepairPlan:
    """A healthy pipeline, the post-loss rebalance, and the bill for it."""

    network: str
    lost_chips: Tuple[int, ...]
    surviving_chips: Tuple[int, ...]
    healthy: PipelinePlan
    repaired: PipelinePlan
    #: layers whose physical chip changed (weights must be re-shipped)
    moved_layers: Tuple[str, ...]
    rebalance_bytes: int
    rebalance_s: float

    @property
    def throughput_ratio(self) -> float:
        """Repaired over healthy steady-state throughput (<= 1)."""
        healthy_ips = self.healthy.throughput_ips
        return self.repaired.throughput_ips / healthy_ips if healthy_ips else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "network": self.network,
            "lost_chips": list(self.lost_chips),
            "surviving_chips": list(self.surviving_chips),
            "healthy_chips": self.healthy.n_chips,
            "healthy_bottleneck_ms": round(self.healthy.bottleneck_s * 1e3, 6),
            "healthy_throughput_ips": round(self.healthy.throughput_ips, 6),
            "repaired_bottleneck_ms": round(self.repaired.bottleneck_s * 1e3, 6),
            "repaired_throughput_ips": round(self.repaired.throughput_ips, 6),
            "throughput_ratio": round(self.throughput_ratio, 6),
            "moved_layers": list(self.moved_layers),
            "rebalance_bytes": self.rebalance_bytes,
            "rebalance_ms": round(self.rebalance_s * 1e3, 6),
        }


def repair_pipeline(
    net: Network,
    config: AcceleratorConfig,
    n_chips: int,
    lost_chips: Sequence[int],
    link: LinkSpec = LinkSpec(),
) -> RepairPlan:
    """Rebalance an ``n_chips`` pipeline after losing ``lost_chips``.

    The repaired partition is planned from scratch over the survivor
    count (DP is cheap; the optimal cut set for N-1 chips is not a local
    edit of the N-chip one).  Stage ``i`` of the repaired pipeline runs on
    the ``i``-th surviving chip in id order; any layer whose physical home
    changed — including every layer of a lost chip — is charged one weight
    shipment over the link, serialized (one host link re-seeds weights).
    """
    lost = sorted(set(lost_chips))
    if not lost:
        raise ConfigError("repair needs at least one lost chip")
    for chip in lost:
        check_count(chip, "lost chip id", None)
        if not 0 <= chip < n_chips:
            raise ConfigError(
                f"lost chip {chip} out of range for a {n_chips}-chip pipeline"
            )
    survivors = tuple(c for c in range(n_chips) if c not in lost)
    if not survivors:
        raise ConfigError(
            f"all {n_chips} chips lost; nothing left to rebalance onto"
        )
    healthy = plan_pipeline(net, config, n_chips, link=link)
    repaired = plan_pipeline(net, config, len(survivors), link=link)

    old_home: Dict[str, int] = {}
    for stage in healthy.stages:
        for name in stage.layer_names:
            old_home[name] = stage.chip
    moved: List[str] = []
    for stage in repaired.stages:
        physical = survivors[stage.chip]
        for name in stage.layer_names:
            if old_home[name] != physical:
                moved.append(name)

    weight_words = {ctx.name: ctx.weights for ctx in net.contexts()}
    rebalance_bytes = sum(
        weight_words[name] * config.word_bytes for name in moved
    )
    rebalance_s = sum(
        link.transfer_seconds(weight_words[name] * config.word_bytes)
        for name in moved
        if weight_words[name]
    )
    return RepairPlan(
        network=net.name,
        lost_chips=tuple(lost),
        surviving_chips=survivors,
        healthy=healthy,
        repaired=repaired,
        moved_layers=tuple(moved),
        rebalance_bytes=rebalance_bytes,
        rebalance_s=rebalance_s,
    )
