"""Functional-simulator benchmark: wall time of every conv path and of ABFT.

Times every conv path of :mod:`repro.sim.functional` — reference, im2col,
partition, inter-improved — and the ABFT predict/verify/golden pipeline on
the integrity-sweep layer shapes, plus one end-to-end integrity sweep, and
writes ``BENCH_functional.json`` so the simulator's speed is tracked PR
over PR.  Partition (Algorithm 1) and inter-improved (the ``(u, v)``
order) run with an empty :class:`~repro.integrity.sdc.SDCInjector`: that
is the stepwise order every injected sweep run executes, where without a
hook both fuse into the reference GEMM.

Before any timing is trusted, every (shape, path) cell asserts that its
int64 output codes equal :func:`reference_conv`'s exactly, and every ABFT
row that its verified output equals the golden codes — the paper's
Fig. 5(d) claim that each scheme's order computes the direct convolution
bit for bit.  The headline gate **matches_reference** fails the run
otherwise.  Timings are recorded, never gated, so shared CI runners cannot
flake the job.  (The loop-nest oracle these paths once were timed against
is a tier-1 test, ``tests/sim/loop_oracle.py``.)

``--smoke`` times the first three sweep shapes best-of-3 instead of every
shape best-of-10, and runs the smoke sweep.

Usage::

    PYTHONPATH=src python benchmarks/bench_functional.py [--smoke] [--output BENCH_functional.json]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from harness import main

from repro.arch.config import CONFIG_16_16
from repro.integrity.abft import (
    golden_codes,
    predicted_checksums,
    quantize_conv_operands,
    verified_conv,
)
from repro.integrity.sdc import SDCInjector
from repro.integrity.sweep import SWEEP_LAYERS, run_sweep
from repro.nn.layers import ConvLayer, TensorShape
from repro.sim.functional import (
    conv_via_im2col,
    conv_via_inter_improved,
    conv_via_partition,
    random_conv_tensors,
    reference_conv,
)

SEED = 0


def _stepwise(fn):
    """``fn`` through its stepwise order: an empty injector fires nothing,
    but without a hook partition and inter fuse into ``reference_conv``'s
    GEMM, so this times the order every injected sweep run executes."""
    return lambda *args, **kwargs: fn(*args, inject=SDCInjector(()), **kwargs)


#: the timed conv paths; every one takes (data, weights, bias, stride, pad, groups)
PATHS = (
    ("reference", reference_conv),
    ("im2col", conv_via_im2col),
    ("partition", _stepwise(conv_via_partition)),
    ("inter", _stepwise(conv_via_inter_improved)),
)

FULL_REPEATS = 10
SMOKE_REPEATS = 3


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall-clock seconds for one call (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _layer_operands(spec, seed: int):
    name, k, s, pad, groups, din, dout, hw = spec
    layer = ConvLayer(
        name, in_maps=din, out_maps=dout, kernel=k, stride=s, pad=pad, groups=groups
    )
    data, weights, bias = random_conv_tensors(layer, TensorShape(din, hw, hw), seed=seed)
    data_codes, weight_codes, bias_codes = quantize_conv_operands(data, weights, bias)
    return data_codes, weight_codes, bias_codes, s, pad, groups


def bench_conv_paths(specs, repeats: int) -> dict:
    """Time + check every (sweep shape, conv path) cell against the reference."""
    shapes = []
    mismatches = []
    total = 0.0
    for li, spec in enumerate(specs):
        data_codes, weight_codes, bias_codes, s, pad, groups = _layer_operands(
            spec, SEED * 1009 + li
        )
        reference = reference_conv(
            data_codes, weight_codes, bias_codes, stride=s, pad=pad, groups=groups
        )
        cells = {}
        for path_name, fn in PATHS:
            call = lambda: fn(  # noqa: E731 - tiny timing closure
                data_codes, weight_codes, bias_codes, stride=s, pad=pad, groups=groups
            )
            matches = bool(np.array_equal(call(), reference))
            if not matches:
                mismatches.append(f"{spec[0]}/{path_name}")
            best = _best_of(call, repeats)
            total += best
            cells[path_name] = {
                "matches_reference": matches,
                "best_ms": round(best * 1e3, 4),
            }
        shapes.append(
            {
                "name": spec[0],
                "kernel": spec[1],
                "stride": spec[2],
                "pad": spec[3],
                "groups": spec[4],
                "in_maps": spec[5],
                "out_maps": spec[6],
                "hw": spec[7],
                "paths": cells,
            }
        )
    return {
        "shapes": shapes,
        "mismatches": mismatches,
        "total_ms": round(total * 1e3, 4),
    }


def bench_abft(specs, repeats: int) -> dict:
    """Time + check the ABFT predict/verify/golden pipeline per layer."""
    mismatches = []
    total = 0.0
    rows = []
    for li, spec in enumerate(specs):
        data_codes, weight_codes, bias_codes, s, pad, groups = _layer_operands(
            spec, SEED * 1009 + li
        )

        def pipeline():
            checks = predicted_checksums(
                data_codes, weight_codes, bias_codes, s, pad, groups
            )
            verified = verified_conv(
                data_codes,
                weight_codes,
                bias_codes,
                stride=s,
                pad=pad,
                groups=groups,
                path="partition",
            )
            golden = golden_codes(
                data_codes, weight_codes, bias_codes, stride=s, pad=pad, groups=groups
            )
            return checks, verified, golden

        _, verified, golden = pipeline()
        matches = bool(np.array_equal(verified.output, golden))
        if not matches:
            mismatches.append(spec[0])
        best = _best_of(pipeline, repeats)
        total += best
        rows.append(
            {
                "name": spec[0],
                "matches_reference": matches,
                "best_ms": round(best * 1e3, 4),
            }
        )
    return {
        "layers": rows,
        "mismatches": mismatches,
        "total_ms": round(total * 1e3, 4),
    }


def bench_sweep(smoke: bool) -> dict:
    """One end-to-end integrity sweep: its wall time and headline."""
    start = time.perf_counter()
    rollup = run_sweep(seed=SEED, smoke=smoke, config=CONFIG_16_16)
    return {
        "wall_s": round(time.perf_counter() - start, 4),
        "headline": rollup["headline"],
    }


def run(args):
    repeats = SMOKE_REPEATS if args.smoke else FULL_REPEATS
    specs = SWEEP_LAYERS[:3] if args.smoke else SWEEP_LAYERS
    conv = bench_conv_paths(specs, repeats)
    abft = bench_abft(specs, repeats)
    sweep = bench_sweep(args.smoke)

    mismatches = conv["mismatches"] + abft["mismatches"]
    headline = {
        "matches_reference": not mismatches,
        "conv_total_ms": conv["total_ms"],
        "abft_total_ms": abft["total_ms"],
        "sweep_wall_s": sweep["wall_s"],
    }
    payload = {
        "numpy": np.__version__,
        "config": CONFIG_16_16.name,
        "seed": SEED,
        "smoke": args.smoke,
        "repeats": repeats,
        "conv_paths": conv,
        "abft": abft,
        "sweep": sweep,
        "headline": headline,
    }

    lines = [f"{'shape':<16s} {'path':<10s} {'best ms':>9s}"]
    for shape in conv["shapes"]:
        for path_name, cell in shape["paths"].items():
            flag = "" if cell["matches_reference"] else "  MISMATCH"
            lines.append(
                f"{shape['name']:<16s} {path_name:<10s} {cell['best_ms']:>9.3f}{flag}"
            )
    for row in abft["layers"]:
        flag = "" if row["matches_reference"] else "  MISMATCH"
        lines.append(f"{row['name']:<16s} {'abft':<10s} {row['best_ms']:>9.3f}{flag}")
    lines.append(
        f"conv paths total {conv['total_ms']:.2f} ms; abft {abft['total_ms']:.2f} ms; "
        f"sweep end-to-end {sweep['wall_s']:.3f} s"
    )
    gates = [
        (not mismatches, "codes differ from the reference in " + ", ".join(mismatches)),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("functional", run, __doc__))
