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
not produce byte-identical decisions logs.  ``--smoke`` serves two 60 s
days instead of three 100 s days.  All numbers are *simulated*
accelerator time, so the artifact is deterministic across reruns.

Usage::

    PYTHONPATH=src python benchmarks/bench_control.py [--smoke] [--output BENCH_control.json]
"""

from __future__ import annotations

import sys

from harness import main, stable

from repro.arch.config import CONFIG_16_16
from repro.control import AutoscalePolicy, HealingPolicy, SelfHealingControlLoop
from repro.control.loop import run_static_baselines
from repro.serve import (
    BatchCoster,
    BatchPolicy,
    QueuePolicy,
    diurnal_arrivals,
    parse_mix,
)

MIX = "vgg:3,alexnet:1"
SLO_MS = 600.0
BASE_RATE = 6.0
PEAK_RATE = 42.0
MAX_BATCH = 16
MAX_WAIT_MS = 10.0
BATCH_POLICY = BatchPolicy(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS)
QUEUE_POLICY = QueuePolicy(max_depth=256)
SEED = 42
FULL_DAYS, FULL_DAY_S = 3.0, 100.0
SMOKE_DAYS, SMOKE_DAY_S = 2.0, 60.0

#: (start as a fraction of the run, duration in day-fractions, factor)
FLASHES = ((0.55, 0.08, 2.5), (1.30, 0.10, 2.0), (2.75, 0.08, 3.0))


def build_workload(days: float, day_s: float, tenants):
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
        seed=SEED,
        day_s=day_s,
        flash_crowds=flash,
        churn=0.25,
    )
    return requests, days * day_s, flash


def run_autoscaled(coster, tenants, requests, duration) -> dict:
    loop = SelfHealingControlLoop(
        CONFIG_16_16,
        tenants,
        autoscale=AutoscalePolicy(epoch_s=2.0, max_replicas=12),
        healing=HealingPolicy.disabled(),
        batch_policy=BATCH_POLICY,
        queue_policy=QUEUE_POLICY,
        replicas=1,
        coster=coster,
    )
    return loop.run(requests, duration, extra_meta={"seed": SEED}).summary


def run(args):
    days = SMOKE_DAYS if args.smoke else FULL_DAYS
    day_s = SMOKE_DAY_S if args.smoke else FULL_DAY_S
    tenants = parse_mix(MIX, slo_ms=SLO_MS)
    coster = BatchCoster(CONFIG_16_16)
    requests, duration, flash = build_workload(days, day_s, tenants)

    auto, deterministic = stable(
        lambda: run_autoscaled(coster, tenants, requests, duration)
    )
    attainment = auto["deadline_hit_rate"]
    chip_seconds = auto["fleet"]["chip_seconds"]

    mean_rate = len(requests) / duration
    peak_inst = PEAK_RATE * max([1.0] + [f for _, _, f in flash])
    baselines = {
        name: {
            "replicas": replicas,
            "slo_attainment": report.summary["deadline_hit_rate"],
            "shed": report.summary["shed"],
            "p95_ms": report.summary["latency_ms"]["p95"],
            "chip_seconds": round(chip, 6),
        }
        for name, (replicas, report, chip) in run_static_baselines(
            CONFIG_16_16, coster, tenants, requests, duration, peak_inst,
            BATCH_POLICY, QUEUE_POLICY,
        ).items()
    }

    control = auto["control"]
    headline = {
        "mix": MIX,
        "slo_ms": SLO_MS,
        "requests": len(requests),
        "mean_rate_rps": round(mean_rate, 3),
        "peak_instantaneous_rps": round(peak_inst, 3),
        "autoscaler_slo_attainment": attainment,
        "static_mean_slo_attainment": baselines["static_mean"]["slo_attainment"],
        "autoscaler_chip_seconds": round(chip_seconds, 6),
        "static_peak_chip_seconds": baselines["static_peak"]["chip_seconds"],
        "chip_seconds_saved_vs_peak": round(
            baselines["static_peak"]["chip_seconds"] - chip_seconds, 6
        ),
        "peak_replicas": auto["fleet"]["peak_replicas"],
        "actions_by_kind": control["actions_by_kind"],
        "oscillation_freezes": len(control["freezes"]),
        "failed_verifications": control["verdicts_by_status"].get("failed", 0),
        "decisions_log_deterministic": deterministic,
        "attainment_not_worse_than_mean": (
            attainment >= baselines["static_mean"]["slo_attainment"]
        ),
        "cheaper_than_peak": (
            chip_seconds < baselines["static_peak"]["chip_seconds"]
        ),
    }
    payload = {
        "config": CONFIG_16_16.name,
        "seed": SEED,
        "smoke": args.smoke,
        "days": days,
        "day_s": day_s,
        "flash_crowds": [list(f) for f in flash],
        "autoscaler": {
            "policy": control["policy"],
            "verifier": control["verifier"],
            "slo_attainment": attainment,
            "shed": auto["shed"],
            "p95_ms": auto["latency_ms"]["p95"],
            "chip_seconds": round(chip_seconds, 6),
            "fleet": auto["fleet"],
            "n_epochs": control["n_epochs"],
            "actions_by_kind": control["actions_by_kind"],
            "verdicts_by_status": control["verdicts_by_status"],
            "freezes": control["freezes"],
        },
        "baselines": baselines,
        "headline": headline,
    }

    fleets = {
        "autoscaled": dict(
            payload["autoscaler"], replicas=f"1->{auto['fleet']['peak_replicas']}"
        ),
        **baselines,
    }
    lines = [
        f"{'fleet':<13s} {'replicas':>8s} {'attainment':>11s} {'shed':>6s} "
        f"{'p95 ms':>9s} {'chip-s':>10s}"
    ] + [
        f"{name:<13s} {str(f['replicas']):>8s} {f['slo_attainment']:>11.4f} "
        f"{f['shed']:>6d} {f['p95_ms']:>9.1f} {f['chip_seconds']:>10.1f}"
        for name, f in fleets.items()
    ] + [
        f"\nheadline: attainment {headline['autoscaler_slo_attainment']:.4f} vs "
        f"mean fleet's {headline['static_mean_slo_attainment']:.4f}; "
        f"chip-seconds {headline['autoscaler_chip_seconds']:.1f} vs peak "
        f"fleet's {headline['static_peak_chip_seconds']:.1f} "
        f"({headline['chip_seconds_saved_vs_peak']:.1f} saved)"
    ]
    gates = [
        (deterministic, "decisions log differed between identical runs"),
        (
            headline["attainment_not_worse_than_mean"],
            "autoscaler SLO attainment below the static mean fleet",
        ),
        (
            headline["cheaper_than_peak"],
            "autoscaler spent more chip-seconds than the static peak fleet",
        ),
        (
            not headline["failed_verifications"],
            "some actions missed their verification deadline",
        ),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("control", run, __doc__))
