#!/usr/bin/env python
"""Layer-by-layer scheme analysis across the four benchmark networks.

For every conv layer of a chosen network this prints what each scheme
would cost (cycles, utilization, buffer traffic), which one Algorithm 2
picks, and what the exhaustive oracle would have picked — the Fig. 7/
Table 1 story at full-network granularity.

Run:  python examples/layer_analysis.py [alexnet|googlenet|vgg|nin]
"""

import sys

from repro import CONFIG_16_16, build
from repro.adaptive import best_scheme_for_layer, select_scheme
from repro.analysis.report import format_table
from repro.perf import schedule_cache

SCHEMES = ("inter", "inter-improved", "intra", "partition")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "alexnet"
    net = build(name)
    config = CONFIG_16_16

    headers = ["layer", "Din", "k", "s"]
    headers += [f"{s} (cyc)" for s in SCHEMES]
    headers += ["rule picks", "oracle picks", "util"]

    rows = []
    for ctx in net.conv_contexts():
        layer = ctx.layer
        row = [
            ctx.name,
            str(layer.in_maps // layer.groups),
            str(layer.kernel),
            str(layer.stride),
        ]
        table = schedule_cache.table(ctx, config)
        for scheme_name in SCHEMES:
            if table.legal(scheme_name):
                r = table.result(scheme_name, ctx, config)
                row.append(f"{r.total_cycles:,.0f}")
            else:
                row.append("-")
        rule = select_scheme(ctx, config)
        oracle = best_scheme_for_layer(ctx, config)
        row.append(rule.scheme)
        row.append(oracle.scheme + ("" if oracle.scheme == rule.scheme else " *"))
        row.append(f"{oracle.result.utilization:.0%}")
        rows.append(row)

    print(f"Per-layer scheme costs for {name} on a {config.name} array")
    print("(* = the oracle disagrees with Algorithm 2 — usually a Din-chunk")
    print(" quantization corner; the cycle gap is small, see DESIGN.md)\n")
    print(format_table(headers, rows))

    # closing summary: how much does adaptivity buy on this network?
    from repro.adaptive import plan_network

    inter = plan_network(net, config, "inter")
    adaptive = plan_network(net, config, "adaptive-2")
    print(
        f"\nwhole network: inter {inter.total_cycles:,.0f} cycles vs "
        f"adaptive {adaptive.total_cycles:,.0f} cycles "
        f"({inter.total_cycles / adaptive.total_cycles:.2f}x)"
    )


if __name__ == "__main__":
    main()
