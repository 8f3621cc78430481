"""Algorithm 2: per-layer scheme selection and layout decision.

The rule exploits the paper's observation that deep CNNs arrange their
layers along a gradient — bottom layers have big kernels and few input maps,
top layers have small kernels and many maps — so the three schemes are
complementary (Table 1):

1. ``k == s`` (and ``k != 1``): windows never overlap — plain intra-kernel
   (sliding window) gets full reuse with trivial alignment;
2. else if ``Din < Tin``: inter-kernel would idle most of the array —
   kernel-partitioning gives intra-like alignment at near-full utilization;
3. else: inter-kernel (the improved, weight-resident variant for adap-2).

Lines 4-5 of the algorithm pick each layer's *output* layout from the scheme
of the **next** layer, so consecutive layers hand tensors over in exactly the
order the consumer streams them — no layout-transformation hardware needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.nn.network import LayerContext
from repro.schemes import GroupGeometry, group_geometry
from repro.tiling.layout import Layout

__all__ = ["SchemeChoice", "algorithm2", "select_scheme", "layout_for_scheme"]


@dataclass(frozen=True)
class SchemeChoice:
    """The selector's verdict for one layer."""

    layer_name: str
    scheme: str
    reason: str


def algorithm2(geom: GroupGeometry, tin: int, improved_inter: bool = True) -> str:
    """Algorithm 2's scheme for a conv layer of per-group geometry ``geom``;
    ``improved_inter`` picks adap-2's inter-kernel (Sec 4.2.2) over adap-1's."""
    if geom.k == geom.s and geom.k != 1:
        return "intra"
    if geom.s < geom.k and geom.d < tin:
        return "partition"
    return "inter-improved" if improved_inter else "inter"


def select_scheme(
    ctx: LayerContext,
    config: AcceleratorConfig,
    improved_inter: bool = True,
) -> SchemeChoice:
    """Apply Algorithm 2 to one conv layer, with the rule that decided it."""
    geom = group_geometry(ctx)
    scheme = algorithm2(geom, config.tin, improved_inter)
    if scheme == "intra":
        reason = f"k == s == {geom.k}: sliding window aligns perfectly"
    elif scheme == "partition":
        reason = (
            f"Din = {geom.d} < Tin = {config.tin}: inter-kernel would idle "
            f"{config.tin - geom.d}/{config.tin} of the array"
        )
    else:
        reason = (
            f"Din = {geom.d} >= Tin = {config.tin} (or 1x1 kernel): "
            "depth parallelism saturates the array"
        )
    return SchemeChoice(ctx.name, scheme, reason)


def layout_for_scheme(scheme_name: str) -> Layout:
    """The input layout a scheme streams from (Algorithm 2 lines 4-5)."""
    if scheme_name in ("inter", "inter-improved"):
        return Layout.INTER
    return Layout.INTRA
