"""Cluster roll-ups: deterministic JSON summaries of sharding plans.

Reduces a :class:`~repro.cluster.pipeline.PipelinePlan` or
:class:`~repro.cluster.dataparallel.DataParallelPlan` to a plain dict —
steady-state throughput, fill/drain latency, per-stage (or per-chip)
utilization and link occupancy — rendered byte-stable: floats rounded to
microsecond-ish precision, mappings emitted with sorted keys, infinite
bandwidth spelled ``"inf"`` (JSON has no Infinity), so two identical plans
produce identical bytes.
"""

from __future__ import annotations

import math
from typing import Dict, Union

from repro.cluster.dataparallel import DataParallelPlan
from repro.cluster.pipeline import PipelinePlan
from repro.errors import ConfigError
from repro.cluster.link import LinkSpec

__all__ = ["rollup", "rollup_pipeline", "rollup_data_parallel"]


def _round(x: float) -> float:
    return round(x, 6)


def _link_dict(link: LinkSpec) -> Dict[str, object]:
    bw = link.bandwidth_gbs
    return {
        "bandwidth_gbs": "inf" if math.isinf(bw) else _round(bw),
        "latency_us": _round(link.latency_s * 1e6),
    }


def rollup_pipeline(plan: PipelinePlan) -> Dict[str, object]:
    """Reduce a pipeline plan to its steady-state summary dict."""
    return {
        "kind": "pipeline",
        "network": plan.network,
        "config": plan.config.name,
        "chips": plan.n_chips,
        "strategy": plan.strategy,
        "link": _link_dict(plan.link),
        "bottleneck_ms": _round(plan.bottleneck_s * 1e3),
        "throughput_ips": _round(plan.throughput_ips),
        "fill_latency_ms": _round(plan.fill_latency_s * 1e3),
        "drain_latency_ms": _round(plan.drain_latency_s * 1e3),
        "stages": [
            {
                "chip": s.chip,
                "layers": list(s.layer_names),
                "compute_ms": _round(s.compute_s * 1e3),
                "send_ms": _round(s.send_s * 1e3),
                "send_bytes": s.send_bytes,
                "utilization": _round(plan.utilization(s.chip)),
                "link_occupancy": _round(plan.link_occupancy(s.chip)),
            }
            for s in plan.stages
        ],
    }


def rollup_data_parallel(plan: DataParallelPlan) -> Dict[str, object]:
    """Reduce a data-parallel plan to its per-step summary dict."""
    return {
        "kind": "data-parallel",
        "network": plan.network,
        "config": plan.config.name,
        "chips": plan.n_chips,
        "batch_size": plan.batch_size,
        "link": _link_dict(plan.link),
        "step_ms": _round(plan.step_s * 1e3),
        "scatter_ms": _round(plan.scatter_s * 1e3),
        "gather_ms": _round(plan.gather_s * 1e3),
        "throughput_ips": _round(plan.throughput_ips),
        "single_chip_ips": _round(plan.single_chip_throughput_ips),
        "speedup": _round(plan.speedup),
        "efficiency": _round(plan.efficiency),
        "link_occupancy": _round(plan.link_occupancy),
        "shards": [
            {
                "chip": s.chip,
                "batch": s.batch,
                "compute_ms": _round(s.compute_s * 1e3),
                "scatter_bytes": s.scatter_bytes,
                "gather_bytes": s.gather_bytes,
                "utilization": _round(plan.utilization(s.chip)),
            }
            for s in plan.shards
        ],
    }


def rollup(
    plan: Union[PipelinePlan, DataParallelPlan]
) -> Dict[str, object]:
    """Dispatch on the plan type."""
    if isinstance(plan, PipelinePlan):
        return rollup_pipeline(plan)
    if isinstance(plan, DataParallelPlan):
        return rollup_data_parallel(plan)
    raise ConfigError(f"cannot roll up {type(plan).__name__}")
