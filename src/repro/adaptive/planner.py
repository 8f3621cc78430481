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
conversion, charged as one extra DMA pass.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.adaptive.selector import SchemeChoice, layout_for_scheme, select_scheme
from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, ScheduleError
from repro.nn.network import LayerContext, Network
from repro.perf.cache import schedule_cache
from repro.perf.instrument import phase
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


def _fixed_chooser(scheme_name: str) -> Callable[[LayerContext, AcceleratorConfig], str]:
    def choose(ctx: LayerContext, config: AcceleratorConfig) -> str:
        if scheme_name == "partition":
            # degenerate layers (s >= k, e.g. 1x1 convs) cannot be
            # partitioned; the scheme falls back to plain intra-kernel
            geom_k = ctx.layer.kernel
            geom_s = ctx.layer.stride
            if geom_s >= geom_k:
                return "intra"
        return scheme_name

    return choose


def _adaptive_chooser(improved: bool) -> Callable[[LayerContext, AcceleratorConfig], str]:
    def choose(ctx: LayerContext, config: AcceleratorConfig) -> str:
        return select_scheme(ctx, config, improved_inter=improved).scheme

    return choose


def _oracle_chooser(ctx: LayerContext, config: AcceleratorConfig) -> str:
    # imported lazily to avoid an import cycle with search.py
    from repro.adaptive.search import best_scheme_name_for_layer

    return best_scheme_name_for_layer(ctx, config)


def _chooser(policy: str) -> Callable[[LayerContext, AcceleratorConfig], str]:
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
    from repro.nn.layers import ConvLayer
    from repro.schemes.auxiliary import schedule_auxiliary

    choose = _chooser(policy)
    with phase("plan_network"):
        run = NetworkRun(network_name=net.name, policy=policy, config=config)
        first_conv_ctx: Optional[LayerContext] = None
        first_conv_result = None
        for ctx in net.contexts():
            if isinstance(ctx.layer, ConvLayer):
                name = choose(ctx, config)
                try:
                    result = schedule_cache.get_or_schedule(name, ctx, config)
                except ScheduleError:
                    # a fixed policy hit a layer its scheme cannot map — fall
                    # back to intra-kernel, which is always legal
                    result = schedule_cache.get_or_schedule("intra", ctx, config)
                if first_conv_ctx is None:
                    first_conv_ctx = ctx
                    first_conv_result = result
                run.append(result)
            elif include_non_conv:
                run.append(schedule_auxiliary(ctx, config))
        if first_conv_result is not None:
            run.input_reorder_words = reorder_moves(
                first_conv_ctx.in_shape, _INPUT_LAYOUT, first_conv_result.input_layout
            )
        return run
