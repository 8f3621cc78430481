"""Repository benchmark: simulator host speed and modelled accelerator metrics.

Runs the workloads declared in ``BENCHMARK.json`` (all of them, or one with
``--workload``), each in fresh child processes started one at a time (see
``child.py``): one child sets up, warms up, times repetitions for
``--seconds`` seconds and runs the extras; ``SETUP_SAMPLES - 1`` more
children only set up, so set-up time is a median too.

Host times are reported at a reference host speed: each raw time is
multiplied by ``REFERENCE_CAL_S`` over the calibration kernel's time
measured around it (``child.calibrate``).  On a host whose speed drifts by
up to 2x over seconds, that keeps two runs of the same code comparable; the
raw times are kept in the ``--output`` record.

Usage::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--output FILE]

Every metric is printed as ``workload metric value unit``.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics declared in ``BENCHMARK.json``, or with
``--trace`` the per-layer ones.  With ``--workload`` the metrics map is
flat; without it, it is keyed by workload.  ``--output`` also writes every
repetition, quartile, check and span to a JSON file.  The exit code is 0
only when every child ran and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: child processes per workload, each one set-up sample
SETUP_SAMPLES = 3
#: calibration-kernel seconds on the reference host (an uncontended 2-vCPU
#: Xeon VM running CPython 3.11); host times are scaled to it
REFERENCE_CAL_S = 0.006
#: wall-clock cap for one workload, children included
WORKLOAD_DEADLINE_S = 170.0
#: environment that would change what the children compute or cache
STRIPPED_ENV = ("REPRO_NO_PLAN_CACHE", "REPRO_PLAN_CACHE_DIR", "REPRO_SIM_BACKEND")
#: one compute thread per child; only one child runs at a time
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: metrics reported beside the declared ones: (unit, better, bound); a bound
#: of None means the value is exact and any change is a change in the model
EXTRA_METRICS: Dict[str, Tuple[str, str, object]] = {
    "sim_req_per_s": ("req/s", "higher", 0.2),
    "failed_frac": ("ratio", "lower", 0.0),
    "sim_p50_ms": ("ms", "lower", None),
    "sim_p99_ms": ("ms", "lower", None),
    "slo_attainment": ("ratio", "higher", None),
    "sim_max_rps_at_slo": ("req/s", "higher", None),
    "sim_gcycles": ("Gcycles", "lower", None),
    "model_err_pct": ("%", "lower", None),
}


class BenchmarkError(RuntimeError):
    """A child failed to run; no result can be reported."""


def declared() -> Dict[str, object]:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``' exclusive method)."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def normalized(raw_s: float, cal_s: float) -> float:
    """A host time scaled to the reference host speed."""
    return raw_s * REFERENCE_CAL_S / cal_s


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_children(name: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    """Run the workload's children one after another; raise if any fails."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    env = child_env()
    children = []
    for index in range(SETUP_SAMPLES):
        started = time.monotonic()
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", name,
            "--seed", str(seed),
            "--budget", repr(seconds),
            "--started", repr(started),
        ]
        if index > 0:
            cmd.append("--setup-only")
        else:
            cmd.append("--extras")
            if trace:
                cmd.append("--trace")
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=max(1.0, deadline - started),
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{name}: child {index} passed the time cap") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"{name}: child {index} exited {proc.returncode}")
        children.append(json.loads(lines[-1]))
    return children


def _checks(main: dict) -> List[Tuple[str, bool]]:
    """Every counted correctness check of the measuring child."""
    reference = main["warmup"]
    first = main["reps"][0]
    reps = [("warmup", reference)]
    reps += [(f"rep{i}", rep) for i, rep in enumerate(main["reps"])]
    if "trace" in main:
        reps.append(("traced", main["trace"]["rep"]))
    checks: List[Tuple[str, bool]] = []
    for label, rep in reps:
        checks.append((f"{label}/digest", rep["digest"] == reference["digest"]))
        if label != "warmup":
            # the warm-up fills the caches; timed repetitions must repeat
            checks.append((f"{label}/counters", rep["counters"] == first["counters"]))
        checks += [(f"{label}/{check}", ok) for check, ok in rep["checks"]]
    checks += [(f"post/{check}", ok) for check, ok in main.get("post_checks", [])]
    return checks


def aggregate(children: List[dict], spec: Dict[str, object]) -> Dict[str, object]:
    """Reduce one workload's children to its metrics and record."""
    main = children[0]
    walls = [normalized(r["wall_s"], r["cal_s"]) for r in main["reps"]]
    setups = [normalized(c["setup_s"], c["setup_cal_s"]) for c in children]
    checks = _checks(main)
    failures = [check for check, ok in checks if not ok]
    wall = summarize(walls)
    setup = summarize(setups)
    reference = main["reps"][0]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({metric: unit for metric, (unit, _, _) in EXTRA_METRICS.items()})
    values: Dict[str, float] = {
        "wall_s": wall["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": main["peak_rss_mb"],
        "failed_frac": len(failures) / len(checks),
    }
    if reference["offered"]:
        values["sim_req_per_s"] = reference["offered"] / wall["median"]
    modelled = dict(reference["modelled"])
    completed = modelled.pop("sim_completed", None)
    modelled.update(main.get("modelled", {}))
    values.update(modelled)
    record: Dict[str, object] = {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "wall_s": {
            "reps": walls,
            "raw_reps": [r["wall_s"] for r in main["reps"]],
            "cal_s": [r["cal_s"] for r in main["reps"]],
            "R": len(walls),
            **wall,
        },
        "setup_s": {
            "children": setups,
            "raw_children": [c["setup_s"] for c in children],
            **setup,
        },
        "digest": reference["digest"],
        "counters": reference["counters"],
        "checks": {"attempted": len(checks), "failed": len(failures), "failures": failures},
    }
    if completed is not None:
        record["sim_completed"] = completed
    if "trace" in main:
        trace = main["trace"]
        traced_wall = normalized(trace["rep"]["wall_s"], trace["rep"]["cal_s"])
        layer = dict(trace["layer"])
        named_self = sum(entry["self_s"] for entry in trace["layers"].values())
        layer["trace.overhead_frac"] = traced_wall / wall["median"] - 1.0
        layer["trace.coverage_frac"] = named_self / trace["rep"]["wall_s"]
        record["per_layer"] = {
            m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        record["trace"] = {
            "wall_s": traced_wall,
            "raw_wall_s": trace["rep"]["wall_s"],
            "layers": trace["layers"],
            "spans": trace["spans"],
        }
    return record


def result_line(records: Dict[str, dict], spec: Dict[str, object], trace: bool, flat: bool) -> dict:
    """The final stdout line: correctness plus the declared metrics."""
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    source = "per_layer" if trace else "metrics"
    metrics = {
        workload: {n: record[source][n] for n in names}
        for workload, record in records.items()
    }
    attempted = sum(r["checks"]["attempted"] for r in records.values())
    failed = sum(r["checks"]["failed"] for r in records.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": next(iter(metrics.values())) if flat else metrics,
    }


def _print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for metric, entry in metrics.items():
        print(f"{workload} {metric} {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run one traced repetition and report per-layer metrics",
    )
    parser.add_argument("--output", help="write the full record to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else names
    records: Dict[str, dict] = {}
    try:
        for name in selected:
            children = run_children(name, args.seed, args.seconds, bool(args.trace))
            records[name] = aggregate(children, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    for name, record in records.items():
        _print_metrics(name, record["metrics"])
        if "per_layer" in record:
            _print_metrics(name, record["per_layer"])
        for failure in record["checks"]["failures"]:
            print(f"{name} FAILED {failure}", file=sys.stderr)
    line = result_line(records, spec, bool(args.trace), flat=args.workload is not None)
    if args.output:
        payload = {
            "seed": args.seed,
            "seconds": args.seconds,
            "setup_samples": SETUP_SAMPLES,
            "reference_cal_s": REFERENCE_CAL_S,
            "trace": bool(args.trace),
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
            },
            "workloads": records,
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
