"""The integrity benchmark sweep behind ``repro integrity``.

Injects seeded single bit flips at every (layer, scheme path, buffer
site) combination, runs each under :func:`~repro.integrity.abft.
verified_conv`, and scores the guard against the golden reference:

* **detection rate** — flagged runs / runs whose raw output actually
  differed from the golden codes (a flip into an unused input margin or
  a masked low bit corrupts nothing and is counted separately);
* **false-positive rate** — flagged clean (uninjected) runs / clean
  runs, which the integer-exact checksum design pins at zero;
* **corrected fraction** — detected runs whose recovered output is
  bit-identical to the golden reference;
* **overhead** — the scheme-level cost model's verified-vs-unverified
  latency ratio per layer (:func:`repro.schemes.abft.abft_overhead`).

Everything derives from the seed: operand tensors, fault indices/bits,
and the rollup's float fields are rounded — so the JSON is byte-stable
across repeated runs, which ``bench_integrity.py`` asserts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.errors import check_count
from repro.integrity.abft import ABFT_PATHS, golden_codes, verified_conv
from repro.integrity.sdc import SDCInjector
from repro.nn.layers import ConvLayer, TensorShape
from repro.nn.network import LayerContext
from repro.perf.cache import schedule_cache
from repro.resilience.faults import BITFLIP_SITES, seeded_bitflips
from repro.schemes.abft import abft_overhead
from repro.sim.functional import random_conv_tensors

__all__ = ["SWEEP_LAYERS", "render_sweep", "run_sweep"]

#: (name, k, s, pad, groups, din, dout, hw) — chosen to cover odd/even
#: kernels, stride > 1, stride >= kernel (partition fallback), pad > 0,
#: and grouped convolution, at sizes that keep the sweep fast
SWEEP_LAYERS: Tuple[Tuple[str, int, int, int, int, int, int, int], ...] = (
    ("k11-s4", 11, 4, 0, 1, 3, 8, 35),
    ("k3-pad1", 3, 1, 1, 1, 4, 8, 14),
    ("k2-even", 2, 1, 0, 1, 4, 6, 12),
    ("k5-s2-grouped", 5, 2, 1, 2, 4, 8, 16),
    ("k2-s3-fallback", 2, 3, 0, 1, 3, 6, 13),
)


def _site_tally() -> Dict[str, int]:
    return {
        "injections": 0,
        "fired": 0,
        "skipped": 0,
        "corrupted": 0,
        "masked": 0,
        "detected": 0,
        "corrected": 0,
        "escaped": 0,
    }


def _layer_overhead(
    layer: ConvLayer, in_shape: TensorShape, config: AcceleratorConfig
) -> Optional[Dict[str, object]]:
    ctx = LayerContext(layer, in_shape, layer.output_shape(in_shape))
    table = schedule_cache.table(ctx, config)
    for scheme_name in ("partition", "inter-improved"):
        if table.legal(scheme_name):
            base = table.result(scheme_name, ctx, config)
            return abft_overhead(ctx, config, base).to_dict()
    return None


def run_sweep(
    seed: int = 0,
    flips_per_site: int = 4,
    smoke: bool = False,
    config: AcceleratorConfig = CONFIG_16_16,
) -> Dict[str, object]:
    """Run the full injection sweep and return the byte-stable rollup.

    ``flips_per_site`` seeded single-bit flips are injected per (layer,
    path, site); it must be an int of at least 1 (``smoke`` caps it at 2).
    """
    flips_per_site = check_count(flips_per_site, "flips per site", 1)
    layer_specs = SWEEP_LAYERS[:3] if smoke else SWEEP_LAYERS
    if smoke:
        flips_per_site = min(flips_per_site, 2)
    sites: Dict[str, Dict[str, int]] = {s: _site_tally() for s in BITFLIP_SITES}
    paths: Dict[str, Dict[str, int]] = {p: _site_tally() for p in ABFT_PATHS}
    layers = []
    clean_runs = 0
    false_positives = 0
    recovery_mismatches = 0
    for li, (name, k, s, pad, groups, din, dout, hw) in enumerate(layer_specs):
        layer = ConvLayer(
            name, in_maps=din, out_maps=dout, kernel=k, stride=s, pad=pad,
            groups=groups,
        )
        in_shape = TensorShape(din, hw, hw)
        data, weights, bias = random_conv_tensors(
            layer, in_shape, seed=seed * 1009 + li
        )
        golden = golden_codes(data, weights, bias, stride=s, pad=pad, groups=groups)
        for pi, path in enumerate(ABFT_PATHS):
            # clean run: the zero-false-positive claim is checked here
            clean = verified_conv(
                data,
                weights,
                bias,
                stride=s,
                pad=pad,
                groups=groups,
                path=path,
            )
            clean_runs += 1
            if clean.detected:
                false_positives += 1
            if not np.array_equal(clean.output, golden):
                recovery_mismatches += 1
            for si, site in enumerate(BITFLIP_SITES):
                for fi in range(flips_per_site):
                    fault_seed = (
                        seed * 100003 + li * 10007 + pi * 1009 + si * 101 + fi
                    )
                    fault = seeded_bitflips(fault_seed, 1, sites=(site,))[0]
                    injector = SDCInjector([fault])
                    result = verified_conv(
                        data,
                        weights,
                        bias,
                        stride=s,
                        pad=pad,
                        groups=groups,
                        path=path,
                        inject=injector,
                    )
                    for tally in (sites[site], paths[path]):
                        tally["injections"] += 1
                    if not injector.events:
                        # e.g. a psum fault on the stride>=kernel fallback,
                        # which has no multi-piece accumulator to corrupt
                        for tally in (sites[site], paths[path]):
                            tally["skipped"] += 1
                        continue
                    corrupted = not np.array_equal(result.raw_output, golden)
                    recovered = np.array_equal(result.output, golden)
                    for tally in (sites[site], paths[path]):
                        tally["fired"] += 1
                        if not corrupted:
                            tally["masked"] += 1
                            continue
                        tally["corrupted"] += 1
                        if result.detected:
                            tally["detected"] += 1
                            if recovered:
                                tally["corrected"] += 1
                        else:
                            tally["escaped"] += 1
                    if corrupted and result.detected and not recovered:
                        recovery_mismatches += 1
        layers.append(
            {
                "name": name,
                "kernel": k,
                "stride": s,
                "pad": pad,
                "groups": groups,
                "in_maps": din,
                "out_maps": dout,
                "hw": hw,
                "overhead": _layer_overhead(layer, in_shape, config),
            }
        )
    total = _site_tally()
    for tally in sites.values():
        for key in total:
            total[key] += tally[key]
    ratios = [
        layer["overhead"]["latency_ratio"]
        for layer in layers
        if layer["overhead"] is not None
    ]
    headline = {
        "injections": total["injections"],
        "fired": total["fired"],
        "skipped": total["skipped"],
        "corrupted": total["corrupted"],
        "masked": total["masked"],
        "detected": total["detected"],
        "escaped": total["escaped"],
        "detection_rate": round(
            total["detected"] / total["corrupted"] if total["corrupted"] else 1.0, 6
        ),
        "corrected_fraction": round(
            total["corrected"] / total["detected"] if total["detected"] else 1.0, 6
        ),
        "clean_runs": clean_runs,
        "false_positives": false_positives,
        "false_positive_rate": round(
            false_positives / clean_runs if clean_runs else 0.0, 6
        ),
        "recovery_bit_identical": recovery_mismatches == 0,
        "mean_latency_ratio": round(sum(ratios) / len(ratios), 6) if ratios else None,
    }
    return {
        "seed": seed,
        "smoke": smoke,
        "flips_per_site": flips_per_site,
        "config": config.name,
        "layers": layers,
        "sites": sites,
        "paths": paths,
        "headline": headline,
    }


def render_sweep(rollup: Dict[str, object]) -> str:
    """The ``repro integrity`` table: one row of counters per buffer site,
    then the headline detection, false-positive and overhead line."""
    from repro.analysis.report import format_table

    head = rollup["headline"]
    counts = ("injections", "corrupted", "detected", "corrected")
    counts += ("escaped", "masked", "skipped")
    rows = [
        [site] + [str(rollup["sites"][site][key]) for key in counts]
        for site in BITFLIP_SITES
    ]
    ratio = head["mean_latency_ratio"]
    return "\n".join(
        [
            f"integrity sweep seed {rollup['seed']} on {rollup['config']}"
            + (" (smoke)" if rollup["smoke"] else ""),
            "",
            format_table(("site", "injected") + counts[1:], rows),
            f"\ndetection {head['detection_rate']:.1%} of {head['corrupted']} "
            f"corruptions, {head['false_positives']} false positives in "
            f"{head['clean_runs']} clean runs, recovery bit-identical: "
            f"{head['recovery_bit_identical']}"
            + (f", modeled checksum overhead {ratio:.3f}x" if ratio else ""),
        ]
    )
