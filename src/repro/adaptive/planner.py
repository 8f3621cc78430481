"""Whole-network planning: fixed policies and the adaptive policies.

A *policy* decides which scheme runs each conv layer:

* ``"inter"`` / ``"intra"`` / ``"partition"`` — the same scheme across all
  layers (Fig. 8's first three series).  ``partition`` degenerates to
  intra-kernel sliding-window on layers with ``s >= k`` (there is nothing to
  partition; the sub-kernel already equals the window).
* ``"adaptive-1"`` (adpa-1) — Algorithm 2 with the *original* inter-kernel.
* ``"adaptive-2"`` (adpa-2) — Algorithm 2 with the improved inter-kernel of
  Sec 4.2.2 (same cycles, far less buffer traffic).
* ``"ideal"`` — the 100%-utilization bound.
* ``"oracle"`` — exhaustive per-layer search (:mod:`repro.adaptive.search`).

Layout handoff (Algorithm 2 lines 4-5): the planner walks the conv layers in
order and asks each layer to store its output in the layout the *next*
layer's scheme streams from.  Only the raw network input may need a
conversion, charged as one extra DMA pass.  Each layer is one lookup of
its cost table, which holds the policy's inputs and the kept record.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.adaptive.selector import SchemeChoice, algorithm2, select_scheme
from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, ScheduleError
from repro.nn.layers import ConvLayer
from repro.nn.network import LayerContext, Network
from repro.perf.cache import schedule_cache
from repro.perf.instrument import phase
from repro.schemes import CostTable
from repro.sim.trace import NetworkRun
from repro.tiling.layout import Layout, reorder_moves

__all__ = ["plan_network", "POLICY_NAMES", "choices_for_network"]

POLICY_NAMES = (
    "ideal",
    "inter",
    "intra",
    "partition",
    "adaptive-1",
    "adaptive-2",
    "oracle",
)

#: the raw image is delivered in planar (intra) order
_INPUT_LAYOUT = Layout.INTRA


#: a policy's scheme for one conv layer, read from the layer's cost table
Chooser = Callable[[LayerContext, AcceleratorConfig, CostTable], str]


def _fixed_chooser(scheme_name: str) -> Chooser:
    # a layer the scheme cannot map (partition on s >= k, e.g. 1x1 convs)
    # falls back to plain intra-kernel in plan_network
    return lambda ctx, config, table: scheme_name


def _adaptive_chooser(improved: bool) -> Chooser:
    return lambda ctx, config, table: algorithm2(table.geom, config.tin, improved)


def _oracle_chooser(ctx: LayerContext, config: AcceleratorConfig, table: CostTable) -> str:
    return table.winner(ctx, config)


def _chooser(policy: str) -> Chooser:
    if policy in ("ideal", "inter", "intra", "partition"):
        return _fixed_chooser(policy)
    if policy == "adaptive-1":
        return _adaptive_chooser(improved=False)
    if policy == "adaptive-2":
        return _adaptive_chooser(improved=True)
    if policy == "oracle":
        return _oracle_chooser
    raise ConfigError(f"unknown policy {policy!r}; choose from {POLICY_NAMES}")


def choices_for_network(
    net: Network, config: AcceleratorConfig, improved_inter: bool = True
) -> List[SchemeChoice]:
    """Algorithm 2's verdict for every conv layer (reporting helper)."""
    return [
        select_scheme(ctx, config, improved_inter=improved_inter)
        for ctx in net.conv_contexts()
    ]


def plan_network(
    net: Network,
    config: AcceleratorConfig,
    policy: str,
    include_non_conv: bool = False,
) -> NetworkRun:
    """Schedule ``net`` under ``policy``.

    By default only the conv layers are planned (the paper's evaluation
    unit); ``include_non_conv=True`` also appends pooling/FC/LRN records
    from :mod:`repro.schemes.auxiliary` so the run covers the whole
    forward pass.  Returns a :class:`~repro.sim.trace.NetworkRun` with
    per-layer records and an input-reorder charge when the first layer's
    scheme streams a layout other than the planar order the image arrives
    in.
    """
    choose = _chooser(policy)
    with phase("plan_network"):
        run = NetworkRun(network_name=net.name, policy=policy, config=config)
        first_conv_ctx: Optional[LayerContext] = None
        first_conv_result = None
        for ctx in net.contexts():
            if isinstance(ctx.layer, ConvLayer):
                table = schedule_cache.table(ctx, config)
                name = choose(ctx, config, table)
                try:
                    result = table.result(name, ctx, config)
                except ScheduleError:
                    # a fixed policy hit a layer its scheme cannot map — fall
                    # back to intra-kernel, which is always legal
                    result = table.result("intra", ctx, config)
                if first_conv_ctx is None:
                    first_conv_ctx = ctx
                    first_conv_result = result
                run.append(result)
            elif include_non_conv:
                run.append(schedule_cache.table(ctx, config).auxiliary(ctx, config))
        if first_conv_result is not None:
            run.input_reorder_words = reorder_moves(
                first_conv_ctx.in_shape, _INPUT_LAYOUT, first_conv_result.input_layout
            )
        return run
