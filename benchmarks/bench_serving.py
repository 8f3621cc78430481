"""Serving benchmark: throughput vs offered load, batch-1 vs dynamic batching.

Sweeps the offered Poisson load on an FC-heavy network (AlexNet, whose
batch-1 forward pass is DMA-bound on the FC weight streams) and serves it
two ways at every rate:

1. **batch-1** — one request per accelerator occupancy, the paper's
   single-image regime;
2. **dynamic** — max-batch + max-wait batching, which amortizes the FC
   weight DMA across the backlog.

Writes ``BENCH_serving.json``.  The headline records the saturating-load
comparison (offered load above batch-1 capacity): dynamic batching must
beat batch-1 on p95 latency there, and the script exits nonzero if it
doesn't.  ``--smoke`` serves a three-rate grid for 3 s instead of six
rates for 10 s.  All numbers are *simulated* accelerator time, so the
artifact is deterministic — reruns produce identical measurements.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke] [--output BENCH_serving.json]
"""

from __future__ import annotations

import sys

from harness import main

from repro.arch.config import CONFIG_16_16
from repro.serve import (
    BatchCoster,
    BatchPolicy,
    QueuePolicy,
    ServingEngine,
    parse_mix,
    poisson_arrivals,
)

NETWORK = "alexnet"
SEED = 0
SATURATING_RATE = 100.0  # above batch-1 capacity (~56 req/s), below dynamic's
FULL_RATES = (25.0, 50.0, 75.0, 100.0, 150.0, 200.0)
SMOKE_RATES = (50.0, 100.0, 200.0)
FULL_DURATION_S = 10.0
SMOKE_DURATION_S = 3.0

POLICIES = {
    "batch-1": BatchPolicy(max_batch=1),
    "dynamic": BatchPolicy(max_batch=16, max_wait_ms=10.0),
}


def serve_once(
    coster: BatchCoster, rate: float, duration_s: float, policy_name: str
) -> dict:
    tenants = parse_mix(NETWORK)
    requests = poisson_arrivals(rate, duration_s, tenants, seed=SEED)
    engine = ServingEngine(
        CONFIG_16_16,
        batch_policy=POLICIES[policy_name],
        queue_policy=QueuePolicy(max_depth=256),
        coster=coster,
    )
    summary = engine.run(requests, duration_s).summary
    return {
        "rate_rps": rate,
        "policy": policy_name,
        "offered": summary["offered"],
        "completed": summary["completed"],
        "shed_rate": summary["shed_rate"],
        "goodput_rps": summary["goodput_rps"],
        "throughput_rps": summary["throughput_rps"],
        "p50_ms": summary["latency_ms"]["p50"],
        "p95_ms": summary["latency_ms"]["p95"],
        "p99_ms": summary["latency_ms"]["p99"],
        "queue_wait_p95_ms": summary["queue_wait_ms"]["p95"],
        "mean_batch_size": summary["mean_batch_size"],
        "utilization": summary["utilization"],
    }


def run(args):
    duration = SMOKE_DURATION_S if args.smoke else FULL_DURATION_S
    rates = SMOKE_RATES if args.smoke else FULL_RATES
    coster = BatchCoster(CONFIG_16_16)
    scenarios = [
        serve_once(coster, rate, duration, policy_name)
        for rate in rates
        for policy_name in POLICIES
    ]
    saturated = {s["policy"]: s for s in scenarios if s["rate_rps"] == SATURATING_RATE}
    b1, dyn = saturated["batch-1"], saturated["dynamic"]
    headline = {
        "network": NETWORK,
        "saturating_rate_rps": SATURATING_RATE,
        "batch1_capacity_rps": round(coster.capacity_rps(NETWORK, 1), 3),
        "dynamic_capacity_rps": round(
            coster.capacity_rps(NETWORK, POLICIES["dynamic"].max_batch), 3
        ),
        "batch1_p95_ms": b1["p95_ms"],
        "dynamic_p95_ms": dyn["p95_ms"],
        "p95_speedup": round(b1["p95_ms"] / dyn["p95_ms"], 3),
        "batch1_goodput_rps": b1["goodput_rps"],
        "dynamic_goodput_rps": dyn["goodput_rps"],
        "dynamic_beats_batch1_p95": dyn["p95_ms"] < b1["p95_ms"],
    }
    payload = {
        "network": NETWORK,
        "config": CONFIG_16_16.name,
        "duration_s": duration,
        "seed": SEED,
        "smoke": args.smoke,
        "policies": {name: p.describe() for name, p in POLICIES.items()},
        "scenarios": scenarios,
        "headline": headline,
    }

    lines = [
        f"{'rate':>6s} {'policy':<8s} {'goodput':>8s} {'p50 ms':>9s} "
        f"{'p95 ms':>9s} {'p99 ms':>9s} {'shed':>6s} {'batch':>6s}"
    ] + [
        f"{s['rate_rps']:>6.0f} {s['policy']:<8s} {s['goodput_rps']:>8.1f} "
        f"{s['p50_ms']:>9.1f} {s['p95_ms']:>9.1f} {s['p99_ms']:>9.1f} "
        f"{s['shed_rate']:>6.1%} {s['mean_batch_size']:>6.2f}"
        for s in scenarios
    ] + [
        f"\nheadline @ {SATURATING_RATE:.0f} req/s: dynamic p95 "
        f"{headline['dynamic_p95_ms']:.1f} ms vs batch-1 p95 "
        f"{headline['batch1_p95_ms']:.1f} ms "
        f"({headline['p95_speedup']:.1f}x better)"
    ]
    gates = [
        (
            headline["dynamic_beats_batch1_p95"],
            "dynamic batching did not beat batch-1 p95",
        ),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("serving", run, __doc__))
