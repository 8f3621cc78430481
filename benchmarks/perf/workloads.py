"""The four benchmark workloads: seeded inputs, one repetition, its checks.

Each workload is built from a seed and a size (``tiny`` shrinks it for the
tests) and offers:

* ``setup()`` — input generation and cache priming, counted in ``setup_s``;
* ``rep(split)`` — one repetition of identical work, returning a
  :class:`Rep`; it calls ``split()`` between its natural steps (scenarios,
  networks) so the timer can recalibrate the host's speed there;
* ``modelled()`` — exact modelled-accelerator metrics that cost extra work
  and so run once, outside the timed repetitions;
* ``post_checks()`` — correctness checks that also cost extra work.

The simulator receives only the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.adaptive import planner
from repro.analysis.headline import HeadlineNumbers, headline_numbers
from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.control.chaos_scenarios import build_control_scenario, run_control_scenario
from repro.nn.zoo import build
from repro.perf.cache import schedule_cache
from repro.serve import (
    BatchCoster,
    BatchPolicy,
    QueuePolicy,
    ServingEngine,
    parse_mix,
    poisson_arrivals,
)

__all__ = ["Rep", "WORKLOADS", "make"]

GOLDEN_FIG8 = Path(__file__).resolve().parents[1] / "golden" / "fig8.csv"

Check = Tuple[str, bool]
Split = Callable[[], None]


def _no_split() -> None:
    pass


@dataclass
class Rep:
    """What one repetition produced, besides its wall time."""

    #: sha256 of the canonical simulated output; identical on every repetition
    digest: str
    #: simulated requests offered (0 for a workload that serves none)
    offered: int
    checks: List[Check]
    #: cache and memo counters of this repetition; must repeat exactly
    counters: Dict[str, int]
    #: exact modelled-accelerator metrics read off this repetition
    modelled: Dict[str, float]
    #: per-layer counters read off this repetition's output
    layer: Dict[str, float] = field(default_factory=dict)


def _digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cache_counts() -> Dict[str, int]:
    stats = schedule_cache.stats()
    return {
        "cache.hits": stats.hits,
        "cache.misses": stats.misses,
        "cache.evictions": stats.evictions,
    }


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def _conserved(summary: Dict[str, object]) -> bool:
    terminated = (
        int(summary["completed"]) + int(summary["shed"]) + int(summary["failed"])
    )
    return int(summary["offered"]) == terminated


class Workload:
    """Defaults for the optional parts of a workload."""

    #: batch costers the workload owns (their memo counters are per run)
    costers: Sequence[BatchCoster] = ()

    def modelled(self) -> Dict[str, float]:
        return {}

    def post_checks(self) -> List[Check]:
        return []


# -- serving -----------------------------------------------------------------

MIX = "alexnet:3,googlenet:1,nin:2"
SLO_MS = 200.0
REPLICAS = 4
BATCHING = BatchPolicy(max_batch=16, max_wait_ms=10.0)


@dataclass(frozen=True)
class ServeShape:
    rate_rps: float
    duration_s: float
    queue: QueuePolicy
    routing: str


SERVE_SHAPES = {
    # ~1.5x the fleet's batch-16 capacity: deep per-network queues, ~31% shed
    "serve-overload": ServeShape(
        1200.0, 30.0, QueuePolicy(max_depth=1024), "least-loaded"
    ),
    # shallow queues, ~2.2-request batches: work moves to costing and dispatch
    "serve-light": ServeShape(
        300.0,
        120.0,
        QueuePolicy(max_depth=1024, order="edf", shed_expired=True),
        "round-robin",
    ),
}

#: sim_max_rps_at_slo: bisection range, steps and probe window
RPS_RANGE = (100.0, 1600.0)
RPS_STEPS = 8
RPS_WINDOW_S = 20.0


class ServeWorkload(Workload):
    """Open-loop Poisson traffic through the static :class:`ServingEngine`."""

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.shape = SERVE_SHAPES[name]
        self.rps_steps = RPS_STEPS
        self.rps_window_s = RPS_WINDOW_S
        if tiny:
            self.shape = replace(self.shape, duration_s=2.0)
            self.rps_steps, self.rps_window_s = 2, 2.0

    def setup(self) -> None:
        self.tenants = parse_mix(MIX, slo_ms=SLO_MS)
        start = time.perf_counter()
        self.requests = poisson_arrivals(
            self.shape.rate_rps, self.shape.duration_s, self.tenants, seed=self.seed
        )
        self.workload_s = time.perf_counter() - start
        self.coster = BatchCoster(CONFIG_16_16)
        self.costers = (self.coster,)
        for network in sorted({t.network for t in self.tenants}):
            for size in range(1, BATCHING.max_batch + 1):
                self.coster.batch_run(network, size)

    def _serve(self, requests, duration_s: float) -> Dict[str, object]:
        engine = ServingEngine(
            CONFIG_16_16,
            batch_policy=BATCHING,
            queue_policy=self.shape.queue,
            replicas=REPLICAS,
            routing=self.shape.routing,
            coster=self.coster,
        )
        return engine.run(requests, duration_s).summary

    def rep(self, split: Split = _no_split) -> Rep:
        cache_before = _cache_counts()
        memo_before = (self.coster.memo_hits, self.coster.memo_misses)
        summary = self._serve(self.requests, self.shape.duration_s)
        counters = _delta(_cache_counts(), cache_before)
        counters["memo.hits"] = self.coster.memo_hits - memo_before[0]
        counters["memo.misses"] = self.coster.memo_misses - memo_before[1]
        conserved = _conserved(summary) and summary["offered"] == len(self.requests)
        latency = summary["latency_ms"]
        return Rep(
            digest=_digest(summary),
            offered=int(summary["offered"]),
            checks=[("conservation", conserved)],
            counters=counters,
            modelled={
                "sim_p50_ms": latency["p50"],
                "sim_p99_ms": latency["p99"],
                "sim_completed": summary["completed"],
                "slo_attainment": summary["deadline_hit_rate"],
            },
            layer={
                "serve.queue.shed": summary["shed"],
                "serve.batcher.mean_batch": summary["mean_batch_size"],
                "serve.workload.s": self.workload_s,
                "serve.workload.requests": len(self.requests),
            },
        )

    def _meets_slo(self, rate: float) -> bool:
        window = self.rps_window_s
        requests = poisson_arrivals(rate, window, self.tenants, seed=self.seed)
        summary = self._serve(requests, window)
        return (
            summary["shed"] == 0
            and summary["latency_ms"]["p99"] <= SLO_MS
            and summary["makespan_s"] <= window + 1.0
        )

    def modelled(self) -> Dict[str, float]:
        if self.name != "serve-light":
            return {}
        lo, hi = RPS_RANGE
        for _ in range(self.rps_steps):
            mid = (lo + hi) / 2
            if self._meets_slo(mid):
                lo = mid
            else:
                hi = mid
        return {"sim_max_rps_at_slo": lo}


# -- chaos under autoscaling ---------------------------------------------------

#: the CI smoke set: the only workload on the adaptive engine and control plane
CHAOS_SCENARIOS = ("crash-replace", "loop-restart", "composite-storm")


class ChaosWorkload(Workload):
    """Four-arm chaos scenarios under the self-healing control loop."""

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.names = CHAOS_SCENARIOS[:1] if tiny else CHAOS_SCENARIOS

    def setup(self) -> None:
        self.scenarios = [build_control_scenario(n, seed=self.seed) for n in self.names]

    def rep(self, split: Split = _no_split) -> Rep:
        cache_before = _cache_counts()
        rollups = []
        for index, scenario in enumerate(self.scenarios):
            if index:
                split()
            rollups.append(run_control_scenario(scenario))
        counters = _delta(_cache_counts(), cache_before)
        checks: List[Check] = []
        offered = shed = requests = epochs = confirmed = verdicts = 0
        for scenario, rollup in zip(self.scenarios, rollups):
            for arm_name, arm in sorted(rollup["arms"].items()):
                checks.append((f"{scenario.name}/{arm_name}/conservation", _conserved(arm)))
                offered += int(arm["offered"])
                shed += int(arm["shed"])
                if "verdicts_by_status" in arm:
                    confirmed += arm["verdicts_by_status"].get("confirmed", 0)
                    verdicts += sum(arm["verdicts_by_status"].values())
            for invariant, ok in sorted(rollup["invariants"].items()):
                checks.append((f"{scenario.name}/invariant/{invariant}", bool(ok)))
            requests += int(rollup["arms"]["frozen-healthy"]["offered"])
            # the nonhealing and healing arms each run one control loop
            epochs += 2 * int(
                math.ceil(scenario.duration_s / scenario.autoscale.epoch_s - 1e-9)
            )
        attainment = [float(r["attainment"]["healing"]) for r in rollups]
        return Rep(
            digest=_digest(rollups),
            offered=offered,
            checks=checks,
            counters=counters,
            modelled={"slo_attainment": sum(attainment) / len(attainment)},
            layer={
                "serve.queue.shed": shed,
                "serve.workload.requests": requests,
                "control.epochs": epochs,
                "control.verified_ratio": confirmed / verdicts if verdicts else 0.0,
            },
        )


# -- planning sweep ------------------------------------------------------------

PLAN_NETWORKS = ("alexnet", "googlenet", "vgg", "nin")
PLAN_GRID = tuple(range(4, 65, 4))
PLAN_POLICIES = ("adaptive-2", "oracle")
#: grid points re-planned with the schedule cache off
REPLAN_SAMPLE = 8


def _conv_cycles(run) -> float:
    """Conv-only cycles of a whole-forward-pass plan (Fig. 8's unit)."""
    extra = run.input_reorder_words / run.config.dram_words_per_cycle
    return sum(r.total_cycles for r in run.layers if not r.scheme.startswith("aux-")) + extra


def _plan_signature(run) -> List[object]:
    return [run.input_reorder_words] + [
        (r.layer_name, r.scheme, r.total_cycles, r.buffer_accesses, r.dram_words)
        for r in run.layers
    ]


def _golden_fig8() -> Dict[Tuple[str, str], float]:
    with open(GOLDEN_FIG8, newline="") as handle:
        return {
            (row["config"], row["network"]): float(row["cycles"])
            for row in csv.DictReader(handle)
            if row["policy"] == "adaptive-2"
        }


class PlanSweep(Workload):
    """Cold whole-network planning over a (Tin, Tout) design-space grid.

    The working set exceeds the 4,096-entry schedule-cache LRU, so every
    repetition makes scheme evaluations; serving's working set fits.
    """

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.networks = PLAN_NETWORKS[:1] if tiny else PLAN_NETWORKS
        self.grid = (16, 32) if tiny else PLAN_GRID

    def setup(self) -> None:
        self.nets = [build(n) for n in self.networks]
        self.configs = [
            AcceleratorConfig(tin=tin, tout=tout) for tin in self.grid for tout in self.grid
        ]
        self.golden = _golden_fig8()
        points = [(net, config) for net in self.nets for config in self.configs]
        self.sample = random.Random(self.seed).sample(points, min(REPLAN_SAMPLE, len(points)))
        self.totals: Dict[str, float] = {}

    def rep(self, split: Split = _no_split) -> Rep:
        schedule_cache.clear()
        totals: Dict[str, float] = {}
        checks: List[Check] = []
        for index, net in enumerate(self.nets):
            if index:
                split()
            for config in self.configs:
                for policy in PLAN_POLICIES:
                    run = planner.plan_network(net, config, policy, include_non_conv=True)
                    totals[f"{net.name}/{config.name}/{policy}"] = run.total_cycles
                    golden = self.golden.get((config.name, net.name))
                    if policy == "adaptive-2" and golden is not None:
                        checks.append(
                            (
                                f"fig8/{config.name}/{net.name}",
                                math.isclose(_conv_cycles(run), golden, rel_tol=1e-9),
                            )
                        )
        self.totals = totals
        adaptive = sum(v for k, v in totals.items() if k.endswith("/adaptive-2"))
        return Rep(
            digest=_digest(totals),
            offered=0,
            checks=checks,
            counters=_cache_counts(),
            modelled={"sim_gcycles": adaptive / 1e9},
        )

    def modelled(self) -> Dict[str, float]:
        measured = headline_numbers()
        errors = [
            abs(getattr(measured, key) - paper) / paper
            for key, paper in HeadlineNumbers.PAPER.items()
        ]
        return {"model_err_pct": 100.0 * sum(errors) / len(errors)}

    def post_checks(self) -> List[Check]:
        """Re-plan a seeded sample with the cache off; plans must not change."""
        checks: List[Check] = []
        for net, config in self.sample:
            for policy in PLAN_POLICIES:
                cached = planner.plan_network(net, config, policy, include_non_conv=True)
                schedule_cache.configure(enabled=False)
                try:
                    fresh = planner.plan_network(net, config, policy, include_non_conv=True)
                finally:
                    schedule_cache.configure(enabled=True)
                key = f"{net.name}/{config.name}/{policy}"
                same = (
                    _plan_signature(fresh) == _plan_signature(cached)
                    and fresh.total_cycles == self.totals[key]
                )
                checks.append((f"cache-off/{key}", same))
        return checks


WORKLOADS = {
    "serve-overload": ServeWorkload,
    "serve-light": ServeWorkload,
    "chaos-control": ChaosWorkload,
    "plan-sweep": PlanSweep,
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Build a workload by name (setup has not run yet)."""
    return WORKLOADS[name](name, seed, tiny)
