"""Integrity benchmark: ABFT detection, recovery and checksum overhead.

Runs the seeded single-bit-flip sweep (:mod:`repro.integrity.sweep`)
over every (layer, scheme path, buffer site) cell, plus the two
serving-tier SDC chaos scenarios, and reduces both to headline numbers.

Writes ``BENCH_integrity.json``.  The headline asserts the acceptance
claims and the script exits nonzero if any fails:

1. **detection** — ABFT flags at least 99% of injected single bit flips
   that actually corrupt the output (flips masked by unused margins or
   strides are excluded from the denominator);
2. **zero false positives** — no clean (uninjected) run is ever flagged;
3. **bit-identical recovery** — every detect-and-recompute restores the
   golden reference output exactly;
4. **serving drain** — the ``sdc-storm`` scenario detects every corrupted
   batch, escapes none, and drains the corrupting replica;
5. **determinism** — running the sweep twice produces byte-identical
   rollup JSON.

``--smoke`` runs the sweep's reduced layer/flip grid.  All numbers are
modelled accelerator time: reruns are byte-deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_integrity.py [--smoke] [--output BENCH_integrity.json]
"""

from __future__ import annotations

import sys

from harness import main, stable

from repro.arch.config import CONFIG_16_16
from repro.integrity.sweep import render_sweep, run_sweep
from repro.resilience import build_scenario, run_scenario

SEED = 0
CHAOS_SEED = 1


def run(args):
    rollup, deterministic = stable(
        lambda: run_sweep(seed=SEED, smoke=args.smoke, config=CONFIG_16_16)
    )
    head = rollup["headline"]

    storm = run_scenario(build_scenario("sdc-storm", seed=CHAOS_SEED))
    integrity = storm["integrity"]
    drained = (
        integrity["escaped_batches"] == 0
        and integrity["corrupted_batches"] > 0
        and all(storm["invariants"].values())
    )

    headline = {
        "detection_rate": head["detection_rate"],
        "detects_99_percent": head["detection_rate"] >= 0.99,
        "false_positives": head["false_positives"],
        "zero_false_positives": head["false_positives"] == 0,
        "recovery_bit_identical": head["recovery_bit_identical"],
        "mean_latency_ratio": head["mean_latency_ratio"],
        "sdc_storm_drains_corrupting_replica": drained,
        "byte_deterministic": deterministic,
    }
    payload = {
        "config": CONFIG_16_16.name,
        "seed": SEED,
        "smoke": args.smoke,
        "sweep": rollup,
        "sdc_storm": {
            "seed": CHAOS_SEED,
            "integrity": integrity,
            "invariants": storm["invariants"],
        },
        "headline": headline,
    }

    lines = [render_sweep(rollup)]
    gates = [
        (
            headline["detects_99_percent"],
            f"detection rate {head['detection_rate']:.4f} < 0.99",
        ),
        (
            headline["zero_false_positives"],
            f"{head['false_positives']} clean runs were flagged",
        ),
        (
            headline["recovery_bit_identical"],
            "a recovered output differed from the golden reference",
        ),
        (drained, "sdc-storm did not detect/drain the corrupting replica"),
        (deterministic, "sweep rollup is not byte-deterministic"),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("integrity", run, __doc__))
