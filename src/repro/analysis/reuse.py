"""Data-reuse analytics: MACs per buffer access, per scheme.

The paper's entire energy argument is about *reuse*: "the concurrent data
in PE belong to the same input maps and share same kernel ... so each
operation just need to reload either data or weight, not both".  These
helpers turn that into numbers — for any (layer, scheme) pair:

* ``data_reuse``   = useful MACs per input-buffer word read;
* ``weight_reuse`` = useful MACs per weight-buffer word read;
* ``macs_per_buffer_access`` = useful MACs per total buffer word moved,
  the single figure energy/bit ultimately follows.

The theoretical ceilings (every word read once) are ``MACs/inputs`` and
``MACs/weights``; the table shows how close each scheme gets and on which
side (inter reuses neither; intra/partition reuse weights; improved inter
recovers weight reuse for deep layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.arch.config import AcceleratorConfig
from repro.errors import ScheduleError
from repro.nn.network import LayerContext
from repro.perf.cache import schedule_cache

__all__ = ["ReuseRow", "reuse_for_layer", "reuse_table", "render_reuse"]


@dataclass(frozen=True)
class ReuseRow:
    """Reuse factors of one scheme on one layer."""

    layer: str
    scheme: str
    data_reuse: float
    weight_reuse: float
    macs_per_buffer_access: float
    #: ceilings if every word were fetched exactly once
    data_reuse_ceiling: float
    weight_reuse_ceiling: float


def reuse_for_layer(
    ctx: LayerContext, config: AcceleratorConfig, scheme_name: str
) -> ReuseRow:
    """Compute reuse factors for one scheme on one layer.

    Raises :class:`ScheduleError` if the scheme cannot map the layer.
    """
    result = schedule_cache.table(ctx, config).result(scheme_name, ctx, config)
    macs = result.useful_macs
    data_reads = max(1, result.accesses["input"].loads)
    weight_reads = max(1, result.accesses["weight"].loads)
    total = max(1, result.buffer_accesses)
    weights = ctx.weights if ctx.weights else 1
    return ReuseRow(
        layer=ctx.name,
        scheme=scheme_name,
        data_reuse=macs / data_reads,
        weight_reuse=macs / weight_reads,
        macs_per_buffer_access=macs / total,
        data_reuse_ceiling=macs / ctx.in_shape.elements,
        weight_reuse_ceiling=macs / weights,
    )


def reuse_table(
    ctx: LayerContext,
    config: AcceleratorConfig,
    schemes: Sequence[str] = ("inter", "inter-improved", "intra", "partition"),
) -> List[ReuseRow]:
    """Reuse rows for every legal scheme on one layer."""
    rows = []
    for name in schemes:
        try:
            rows.append(reuse_for_layer(ctx, config, name))
        except ScheduleError:
            continue
    return rows


def render_reuse(rows: Sequence[ReuseRow]) -> str:
    """Text table of reuse factors."""
    from repro.analysis.report import format_table

    body = [
        [
            r.layer,
            r.scheme,
            f"{r.data_reuse:.1f}",
            f"{r.weight_reuse:.1f}",
            f"{r.macs_per_buffer_access:.2f}",
            f"{r.data_reuse_ceiling:.0f}",
            f"{r.weight_reuse_ceiling:.0f}",
        ]
        for r in rows
    ]
    return "Data/weight reuse (useful MACs per buffer word)\n" + format_table(
        [
            "layer",
            "scheme",
            "data reuse",
            "weight reuse",
            "MACs/access",
            "data ceil",
            "weight ceil",
        ],
        body,
    )
