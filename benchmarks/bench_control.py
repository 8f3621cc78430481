"""Autoscaling benchmark: closed-loop control vs static provisioning.

Serves a seeded multi-day diurnal workload with flash crowds (a vgg-heavy
tenant mix, so a handful of req/s already needs several chips) three ways:

1. **autoscaled** — the :mod:`repro.control` loop starts at one replica and
   drives fleet size, batcher knobs and drain/repair from windowed
   telemetry;
2. **static mean** — a fixed fleet sized for the mean arrival rate;
3. **static peak** — a fixed fleet sized for the instantaneous crest rate
   (mid-day sinusoid times the largest flash factor).

Writes ``BENCH_control.json``.  The headline records the autoscaling
trade both baselines miss: SLO attainment at least the mean fleet's while
spending fewer chip-seconds than the peak fleet.  The script exits nonzero
if either side of that trade fails, or if two runs of the control loop do
not produce byte-identical decisions logs.  All numbers are *simulated*
accelerator time, so the artifact is deterministic across reruns.

Usage::

    PYTHONPATH=src python benchmarks/bench_control.py [--smoke] [--output BENCH_control.json]
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

from repro.arch.config import CONFIG_16_16
from repro.control import (
    AutoscalePolicy,
    HealingPolicy,
    SelfHealingControlLoop,
    VerifierPolicy,
    run_static,
    static_fleet_sizes,
)
from repro.serve import (
    BatchCoster,
    BatchPolicy,
    QueuePolicy,
    diurnal_arrivals,
    parse_mix,
)
from repro.serve.metrics import to_json

MIX = "vgg:3,alexnet:1"
SLO_MS = 600.0
BASE_RATE = 6.0
PEAK_RATE = 42.0
MAX_BATCH = 16
MAX_WAIT_MS = 10.0

#: (start as a fraction of the run, duration in day-fractions, factor)
FLASHES = ((0.55, 0.08, 2.5), (1.30, 0.10, 2.0), (2.75, 0.08, 3.0))


def build_workload(days: float, day_s: float, seed: int, tenants):
    flash = [
        (start * day_s, dur * day_s, factor)
        for start, dur, factor in FLASHES
        if start < days
    ]
    requests = diurnal_arrivals(
        BASE_RATE,
        PEAK_RATE,
        days,
        tenants,
        seed=seed,
        day_s=day_s,
        flash_crowds=flash,
        churn=0.25,
    )
    return requests, days * day_s, flash


def run_autoscaled(coster, tenants, requests, duration, seed):
    loop = SelfHealingControlLoop(
        CONFIG_16_16,
        tenants,
        autoscale=AutoscalePolicy(epoch_s=2.0, max_replicas=12),
        verifier=VerifierPolicy(),
        healing=HealingPolicy.disabled(),
        batch_policy=BatchPolicy(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS),
        queue_policy=QueuePolicy(max_depth=256),
        replicas=1,
        coster=coster,
    )
    return loop.run(requests, duration, extra_meta={"seed": seed})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_control.json")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--days", type=float, default=3.0)
    parser.add_argument(
        "--day-s", type=float, default=100.0, help="seconds per simulated day"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short two-day run (the CI smoke configuration)",
    )
    args = parser.parse_args(argv)

    days = 2.0 if args.smoke else args.days
    day_s = 60.0 if args.smoke else args.day_s
    tenants = parse_mix(MIX, slo_ms=SLO_MS)
    coster = BatchCoster(CONFIG_16_16)
    requests, duration, flash = build_workload(days, day_s, args.seed, tenants)

    auto = run_autoscaled(coster, tenants, requests, duration, args.seed)
    rerun = run_autoscaled(coster, tenants, requests, duration, args.seed)
    deterministic = auto.to_json() == rerun.to_json()

    mean_rate = len(requests) / duration
    peak_inst = PEAK_RATE * max([1.0] + [f for _, _, f in flash])
    mean_n, peak_n = static_fleet_sizes(
        coster, tenants, mean_rate, peak_inst, MAX_BATCH
    )
    baselines = {}
    for name, replicas in (("static_mean", mean_n), ("static_peak", peak_n)):
        report, chip = run_static(
            CONFIG_16_16,
            requests,
            duration,
            replicas,
            batch_policy=BatchPolicy(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS),
            queue_policy=QueuePolicy(max_depth=256),
            coster=coster,
        )
        baselines[name] = {
            "replicas": replicas,
            "slo_attainment": report.summary["deadline_hit_rate"],
            "shed": report.summary["shed"],
            "p95_ms": report.summary["latency_ms"]["p95"],
            "chip_seconds": round(chip, 6),
        }

    control = auto.summary["control"]
    headline = {
        "mix": MIX,
        "slo_ms": SLO_MS,
        "requests": len(requests),
        "mean_rate_rps": round(mean_rate, 3),
        "peak_instantaneous_rps": round(peak_inst, 3),
        "autoscaler_slo_attainment": auto.slo_attainment,
        "static_mean_slo_attainment": baselines["static_mean"]["slo_attainment"],
        "autoscaler_chip_seconds": round(auto.chip_seconds, 6),
        "static_peak_chip_seconds": baselines["static_peak"]["chip_seconds"],
        "chip_seconds_saved_vs_peak": round(
            baselines["static_peak"]["chip_seconds"] - auto.chip_seconds, 6
        ),
        "peak_replicas": auto.summary["fleet"]["peak_replicas"],
        "actions_by_kind": control["actions_by_kind"],
        "oscillation_freezes": len(control["freezes"]),
        "failed_verifications": control["verdicts_by_status"].get("failed", 0),
        "decisions_log_deterministic": deterministic,
        "attainment_not_worse_than_mean": (
            auto.slo_attainment
            >= baselines["static_mean"]["slo_attainment"]
        ),
        "cheaper_than_peak": (
            auto.chip_seconds < baselines["static_peak"]["chip_seconds"]
        ),
    }

    payload = {
        "benchmark": "control",
        "generated_by": "benchmarks/bench_control.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "config": CONFIG_16_16.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "days": days,
        "day_s": day_s,
        "flash_crowds": [list(f) for f in flash],
        "autoscaler": {
            "policy": control["policy"],
            "verifier": control["verifier"],
            "slo_attainment": auto.slo_attainment,
            "shed": auto.summary["shed"],
            "p95_ms": auto.summary["latency_ms"]["p95"],
            "chip_seconds": round(auto.chip_seconds, 6),
            "fleet": auto.summary["fleet"],
            "n_epochs": control["n_epochs"],
            "actions_by_kind": control["actions_by_kind"],
            "verdicts_by_status": control["verdicts_by_status"],
            "freezes": control["freezes"],
        },
        "baselines": baselines,
        "headline": headline,
    }
    with open(args.output, "w") as handle:
        handle.write(to_json(payload))

    print(
        f"{'fleet':<13s} {'replicas':>8s} {'attainment':>11s} {'shed':>6s} "
        f"{'p95 ms':>9s} {'chip-s':>10s}"
    )
    rows = [
        (
            "autoscaled",
            f"1->{auto.summary['fleet']['peak_replicas']}",
            auto.slo_attainment,
            auto.summary["shed"],
            auto.summary["latency_ms"]["p95"],
            auto.chip_seconds,
        )
    ] + [
        (
            name,
            str(stats["replicas"]),
            stats["slo_attainment"],
            stats["shed"],
            stats["p95_ms"],
            stats["chip_seconds"],
        )
        for name, stats in baselines.items()
    ]
    for name, replicas, attain, shed, p95, chip in rows:
        print(
            f"{name:<13s} {replicas:>8s} {attain:>11.4f} {shed:>6d} "
            f"{p95:>9.1f} {chip:>10.1f}"
        )
    print(
        f"\nheadline: attainment {headline['autoscaler_slo_attainment']:.4f} vs "
        f"mean fleet's {headline['static_mean_slo_attainment']:.4f}; "
        f"chip-seconds {headline['autoscaler_chip_seconds']:.1f} vs peak "
        f"fleet's {headline['static_peak_chip_seconds']:.1f} "
        f"({headline['chip_seconds_saved_vs_peak']:.1f} saved)"
    )
    print(f"written to {args.output}")

    ok = True
    if not headline["decisions_log_deterministic"]:
        print("FAIL: decisions log differed between identical runs", file=sys.stderr)
        ok = False
    if not headline["attainment_not_worse_than_mean"]:
        print(
            "FAIL: autoscaler SLO attainment below the static mean fleet",
            file=sys.stderr,
        )
        ok = False
    if not headline["cheaper_than_peak"]:
        print(
            "FAIL: autoscaler spent more chip-seconds than the static peak fleet",
            file=sys.stderr,
        )
        ok = False
    if headline["failed_verifications"]:
        print("FAIL: some actions missed their verification deadline", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
