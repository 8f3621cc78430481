"""Sharding benchmark: multi-chip scaling curves for AlexNet and VGG.

For each network and chip count the script plans

1. **pipeline/dp** — the optimal DP layer-pipeline balancer;
2. **pipeline/even** — the naive even-by-count baseline it must beat;
3. **data-parallel** — batch-sharded replication (global batch = 2 images
   per chip) plus its free-link limit (infinite bandwidth, zero latency),
   which bounds how much of the efficiency loss is the interconnect vs
   lost weight amortization at smaller shards.

Writes ``BENCH_sharding.json``.  The headline asserts the structural
claims — the DP balancer's bottleneck (compute + link) is never worse than
the even split, and free-link data parallelism reaches N× the single-chip
throughput at the same shard size — and the script exits nonzero if either
fails.  ``--smoke`` stops the chip grid at 4.  All numbers are modelled
accelerator time: reruns are byte-deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharding.py [--smoke] [--output BENCH_sharding.json]
"""

from __future__ import annotations

import math
import sys

from harness import main

from repro.arch.config import CONFIG_16_16
from repro.cluster import LinkSpec, plan_data_parallel, plan_pipeline
from repro.nn.zoo import build

NETWORKS = ("alexnet", "vgg")
FULL_CHIPS = (1, 2, 4, 8)
SMOKE_CHIPS = (1, 2, 4)
LINK = LinkSpec(bandwidth_gbs=25.0, latency_s=1e-6)
FREE_LINK = LinkSpec(bandwidth_gbs=math.inf, latency_s=0.0)
IMAGES_PER_CHIP = 2


def measure(network: str, chips: int) -> dict:
    net = build(network)
    dp_pipe = plan_pipeline(net, CONFIG_16_16, chips, link=LINK, strategy="dp")
    even_pipe = plan_pipeline(net, CONFIG_16_16, chips, link=LINK, strategy="even")
    batch = IMAGES_PER_CHIP * chips
    dpar = plan_data_parallel(net, CONFIG_16_16, chips, link=LINK, batch_size=batch)
    dpar_free = plan_data_parallel(
        net, CONFIG_16_16, chips, link=FREE_LINK, batch_size=batch
    )
    # free-link N-chip throughput over one chip at the same shard size:
    # the interconnect-less scaling limit, N by construction
    shard = plan_data_parallel(net, CONFIG_16_16, 1, link=FREE_LINK,
                               batch_size=IMAGES_PER_CHIP)
    return {
        "network": network,
        "chips": chips,
        "pipeline_dp_bottleneck_ms": round(dp_pipe.bottleneck_s * 1e3, 6),
        "pipeline_even_bottleneck_ms": round(even_pipe.bottleneck_s * 1e3, 6),
        "pipeline_dp_throughput_ips": round(dp_pipe.throughput_ips, 3),
        "pipeline_fill_ms": round(dp_pipe.fill_latency_s * 1e3, 6),
        "pipeline_dp_beats_even": dp_pipe.bottleneck_s <= even_pipe.bottleneck_s,
        "dataparallel_batch": batch,
        "dataparallel_throughput_ips": round(dpar.throughput_ips, 3),
        "dataparallel_speedup": round(dpar.speedup, 4),
        "dataparallel_efficiency": round(dpar.efficiency, 4),
        "dataparallel_free_link_throughput_ips": round(dpar_free.throughput_ips, 3),
        "dataparallel_free_link_scaling": round(
            dpar_free.throughput_ips / shard.throughput_ips, 4
        ),
    }


def run(args):
    chip_counts = SMOKE_CHIPS if args.smoke else FULL_CHIPS
    rows = [measure(net, chips) for net in NETWORKS for chips in chip_counts]

    dp_always_wins = all(r["pipeline_dp_beats_even"] for r in rows)
    free_link_scales = all(
        abs(r["dataparallel_free_link_scaling"] - r["chips"]) < 1e-3 * r["chips"]
        for r in rows
    )
    best = {
        net: max(
            (r for r in rows if r["network"] == net),
            key=lambda r: r["pipeline_even_bottleneck_ms"]
            / r["pipeline_dp_bottleneck_ms"],
        )
        for net in NETWORKS
    }
    headline = {
        "dp_balancer_never_worse_than_even": dp_always_wins,
        "free_link_data_parallel_scales_nx": free_link_scales,
        "best_dp_vs_even": {
            net: {
                "chips": r["chips"],
                "even_ms": r["pipeline_even_bottleneck_ms"],
                "dp_ms": r["pipeline_dp_bottleneck_ms"],
                "ratio": round(
                    r["pipeline_even_bottleneck_ms"]
                    / r["pipeline_dp_bottleneck_ms"],
                    3,
                ),
            }
            for net, r in best.items()
        },
    }
    payload = {
        "config": CONFIG_16_16.name,
        "link_gbs": LINK.bandwidth_gbs,
        "link_latency_us": LINK.latency_s * 1e6,
        "images_per_chip": IMAGES_PER_CHIP,
        "smoke": args.smoke,
        "scenarios": rows,
        "headline": headline,
    }

    lines = [
        f"{'net':<8s} {'chips':>5s} {'dp ms':>9s} {'even ms':>9s} "
        f"{'pipe img/s':>10s} {'dpar x':>7s} {'dpar eff':>8s} {'free x':>7s}"
    ] + [
        f"{r['network']:<8s} {r['chips']:>5d} "
        f"{r['pipeline_dp_bottleneck_ms']:>9.3f} "
        f"{r['pipeline_even_bottleneck_ms']:>9.3f} "
        f"{r['pipeline_dp_throughput_ips']:>10.1f} "
        f"{r['dataparallel_speedup']:>7.2f} "
        f"{r['dataparallel_efficiency']:>8.1%} "
        f"{r['dataparallel_free_link_scaling']:>7.2f}"
        for r in rows
    ]
    gates = [
        (dp_always_wins, "DP balancer lost to the even split somewhere"),
        (
            free_link_scales,
            "free-link data parallelism did not reach N x shard throughput",
        ),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("sharding", run, __doc__))
