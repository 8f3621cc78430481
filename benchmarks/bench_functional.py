"""Functional-simulator benchmark: vector (im2col/GEMM) vs loop backend.

Times every conv path of :mod:`repro.sim.functional` — reference, im2col,
partition, inter-improved — plus the ABFT verified convolution, on the
integrity-sweep layer shapes, under both backends, and writes
``BENCH_functional.json`` so the vectorization trajectory is tracked PR
over PR.

Before any timing is trusted, every (shape, path) cell asserts the vector
output is **bit-identical** to the loop oracle in the int64 code domain
(exact integer equality, not allclose), and the full integrity-sweep
rollup is re-run under both backends and compared byte-for-byte (modulo
the recorded backend name).  The headline asserts:

1. **bit_identical** — all vector outputs, ABFT checksums and recovered
   outputs equal the loop oracle's, bit for bit;
2. **sweep_rollup_identical** — ``run_sweep`` produces the same rollup
   JSON under both backends;
3. **vector_speedup_10x** (full runs only) — the aggregate conv-path
   speedup on the sweep shapes is at least 10x (timing gates are skipped
   in ``--smoke`` so shared CI runners cannot flake the job).

``--smoke`` times the first three sweep shapes best-of-3 instead of every
shape best-of-10.

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
from repro.integrity.sweep import SWEEP_LAYERS, run_sweep
from repro.nn.layers import ConvLayer, TensorShape
from repro.serve.metrics import to_json
from repro.sim.backend import use_backend
from repro.sim.functional import (
    conv_via_im2col,
    conv_via_inter_improved,
    conv_via_partition,
    random_conv_tensors,
    reference_conv,
)

SEED = 0

#: the timed conv paths; every one takes (data, weights, bias, stride, pad, groups)
PATHS = (
    ("reference", reference_conv),
    ("im2col", conv_via_im2col),
    ("partition", conv_via_partition),
    ("inter", conv_via_inter_improved),
)

SPEEDUP_GATE = 10.0
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


def bench_conv_paths(smoke: bool, repeats: int) -> dict:
    """Time + bit-check every (sweep shape, conv path) cell on both backends."""
    specs = SWEEP_LAYERS[:3] if smoke else SWEEP_LAYERS
    shapes = []
    mismatches = []
    loop_total = 0.0
    vector_total = 0.0
    for li, spec in enumerate(specs):
        codes = _layer_operands(spec, SEED * 1009 + li)
        data_codes, weight_codes, bias_codes, s, pad, groups = codes
        cells = {}
        for path_name, fn in PATHS:
            call = lambda backend: fn(  # noqa: E731 - tiny timing closure
                data_codes,
                weight_codes,
                bias_codes,
                stride=s,
                pad=pad,
                groups=groups,
                backend=backend,
            )
            loop_out = call("loop")
            vector_out = call("vector")
            identical = bool(np.array_equal(loop_out, vector_out))
            if not identical:
                mismatches.append(f"{spec[0]}/{path_name}")
            loop_s = _best_of(lambda: call("loop"), repeats)
            vector_s = _best_of(lambda: call("vector"), repeats)
            loop_total += loop_s
            vector_total += vector_s
            cells[path_name] = {
                "bit_identical": identical,
                "loop_ms": round(loop_s * 1e3, 4),
                "vector_ms": round(vector_s * 1e3, 4),
                "speedup": round(loop_s / vector_s, 2) if vector_s else None,
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
        "loop_total_ms": round(loop_total * 1e3, 4),
        "vector_total_ms": round(vector_total * 1e3, 4),
        "speedup_total": round(loop_total / vector_total, 2) if vector_total else None,
    }


def bench_abft(smoke: bool, repeats: int) -> dict:
    """Time + bit-check the ABFT predict/verify pipeline on both backends."""
    specs = SWEEP_LAYERS[:3] if smoke else SWEEP_LAYERS
    mismatches = []
    loop_total = 0.0
    vector_total = 0.0
    rows = []
    for li, spec in enumerate(specs):
        codes = _layer_operands(spec, SEED * 1009 + li)
        data_codes, weight_codes, bias_codes, s, pad, groups = codes

        def run(backend):
            checks = predicted_checksums(
                data_codes, weight_codes, bias_codes, s, pad, groups, backend
            )
            verified = verified_conv(
                data_codes,
                weight_codes,
                bias_codes,
                stride=s,
                pad=pad,
                groups=groups,
                path="partition",
                backend=backend,
            )
            golden = golden_codes(
                data_codes,
                weight_codes,
                bias_codes,
                stride=s,
                pad=pad,
                groups=groups,
                backend=backend,
            )
            return checks, verified, golden

        loop_checks, loop_verified, loop_golden = run("loop")
        vec_checks, vec_verified, vec_golden = run("vector")
        identical = (
            np.array_equal(loop_checks.row, vec_checks.row)
            and np.array_equal(loop_checks.col, vec_checks.col)
            and np.array_equal(loop_checks.total, vec_checks.total)
            and np.array_equal(loop_verified.output, vec_verified.output)
            and np.array_equal(loop_golden, vec_golden)
        )
        if not identical:
            mismatches.append(spec[0])
        loop_s = _best_of(lambda: run("loop"), repeats)
        vector_s = _best_of(lambda: run("vector"), repeats)
        loop_total += loop_s
        vector_total += vector_s
        rows.append(
            {
                "name": spec[0],
                "bit_identical": bool(identical),
                "loop_ms": round(loop_s * 1e3, 4),
                "vector_ms": round(vector_s * 1e3, 4),
                "speedup": round(loop_s / vector_s, 2) if vector_s else None,
            }
        )
    return {
        "layers": rows,
        "mismatches": mismatches,
        "loop_total_ms": round(loop_total * 1e3, 4),
        "vector_total_ms": round(vector_total * 1e3, 4),
        "speedup_total": round(loop_total / vector_total, 2) if vector_total else None,
    }


def bench_sweep(smoke: bool) -> dict:
    """End-to-end integrity sweep under both backends; rollups must match."""
    with use_backend("loop"):
        start = time.perf_counter()
        loop_rollup = run_sweep(seed=SEED, smoke=smoke, config=CONFIG_16_16)
        loop_s = time.perf_counter() - start
    with use_backend("vector"):
        start = time.perf_counter()
        vector_rollup = run_sweep(seed=SEED, smoke=smoke, config=CONFIG_16_16)
        vector_s = time.perf_counter() - start
    # the only permitted difference is the recorded backend name
    loop_cmp = dict(loop_rollup, backend="vector")
    identical = to_json(loop_cmp) == to_json(vector_rollup)
    return {
        "rollup_identical": bool(identical),
        "loop_s": round(loop_s, 4),
        "vector_s": round(vector_s, 4),
        "speedup": round(loop_s / vector_s, 2) if vector_s else None,
        "headline": vector_rollup["headline"],
    }


def run(args):
    repeats = SMOKE_REPEATS if args.smoke else FULL_REPEATS
    conv = bench_conv_paths(args.smoke, repeats)
    abft = bench_abft(args.smoke, repeats)
    sweep = bench_sweep(args.smoke)

    bit_identical = not conv["mismatches"] and not abft["mismatches"]
    headline = {
        "bit_identical": bit_identical,
        "sweep_rollup_identical": sweep["rollup_identical"],
        "conv_speedup_total": conv["speedup_total"],
        "abft_speedup_total": abft["speedup_total"],
        "sweep_speedup": sweep["speedup"],
        "speedup_gate": SPEEDUP_GATE,
        "gate_enforced": not args.smoke,
        "vector_speedup_10x": (
            conv["speedup_total"] is not None
            and conv["speedup_total"] >= SPEEDUP_GATE
        ),
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

    lines = [
        f"{'shape':<16s} {'path':<10s} {'loop ms':>9s} {'vector ms':>10s} {'speedup':>8s}"
    ]
    for shape in conv["shapes"]:
        for path_name, cell in shape["paths"].items():
            flag = "" if cell["bit_identical"] else "  MISMATCH"
            lines.append(
                f"{shape['name']:<16s} {path_name:<10s} {cell['loop_ms']:>9.3f} "
                f"{cell['vector_ms']:>10.3f} {cell['speedup']:>7.1f}x{flag}"
            )
    lines.append(
        f"conv paths total: {conv['loop_total_ms']:.2f} ms loop -> "
        f"{conv['vector_total_ms']:.2f} ms vector = {conv['speedup_total']:.1f}x; "
        f"abft {abft['speedup_total']:.1f}x; "
        f"sweep end-to-end {sweep['speedup']:.1f}x"
    )
    gates = [
        (
            bit_identical,
            "vector/loop mismatch in "
            + ", ".join(conv["mismatches"] + abft["mismatches"]),
        ),
        (sweep["rollup_identical"], "sweep rollups differ across backends"),
        (
            args.smoke or headline["vector_speedup_10x"],
            f"conv-path speedup {conv['speedup_total']}x < {SPEEDUP_GATE}x",
        ),
    ]
    return payload, lines, gates


if __name__ == "__main__":
    sys.exit(main("functional", run, __doc__))
