"""What a closed control run reports, and the static baselines it is judged against.

The loop itself is :class:`~repro.control.healing.SelfHealingControlLoop`:
detector → planner → actuator → verifier per control epoch over one
:class:`~repro.serve.engine.AdaptiveServingEngine`.  With
:meth:`HealingPolicy.disabled() <repro.control.healing.HealingPolicy.disabled>`
it is the plain autoscaler (``repro autoscale``); its run reduces to a
:class:`ControlReport` whose ``control`` section is the full decisions
log — one record per epoch with the window stats, the actions taken (with
concrete rids), and the verification verdicts — bit-deterministic given
the workload seed.

:func:`run_static` runs the identical workload on the fixed-fleet
:class:`~repro.serve.engine.ServingEngine` — the peak-/mean-provisioned
baselines the autoscaler is judged against in
``benchmarks/bench_control.py``: SLO attainment no worse than the static
mean fleet, chip-seconds below the static peak fleet;
:func:`static_fleet_sizes` sizes those fleets, and
:func:`run_static_baselines` sizes and runs both (``repro autoscale
--compare`` and the bench share it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError
from repro.serve.batcher import BatchCoster, BatchPolicy, mix_image_seconds
from repro.serve.engine import ServingEngine, ServingReport
from repro.serve.metrics import to_json
from repro.serve.queue import QueuePolicy
from repro.serve.workload import Request, TenantSpec

__all__ = ["ControlReport", "run_static", "run_static_baselines", "static_fleet_sizes"]

#: capacity headroom of the static baselines (the autoscaler's default)
HEADROOM = 0.25


@dataclass
class ControlReport:
    """A served workload plus the decisions log that shaped it."""

    summary: Dict[str, object]
    serving: ServingReport
    epochs: List[Dict[str, object]] = field(default_factory=list)

    def to_json(self) -> str:
        return to_json(self.summary)

    @property
    def slo_attainment(self) -> float:
        return float(self.summary["deadline_hit_rate"])

    @property
    def chip_seconds(self) -> float:
        return float(self.summary["fleet"]["chip_seconds"])


def static_fleet_sizes(
    coster: BatchCoster,
    tenants: Sequence[TenantSpec],
    mean_rate_rps: float,
    peak_rate_rps: float,
    max_batch: int,
) -> Tuple[int, int]:
    """(mean-provisioned, peak-provisioned) static fleet sizes.

    Uses the same blended capacity model as the planner — seconds per
    request averaged over the tenants' weight shares, plus
    :data:`HEADROOM` — so the baselines are sized by the identical
    arithmetic the autoscaler uses, not a hand-picked number.
    """
    if peak_rate_rps < mean_rate_rps:
        raise ConfigError(
            f"peak rate {peak_rate_rps!r} below mean rate {mean_rate_rps!r}"
        )
    total_weight = sum(t.weight for t in tenants)
    sec_per_req = mix_image_seconds(
        coster, [(t.network, t.weight / total_weight) for t in tenants], max_batch
    )
    capacity = 1.0 / sec_per_req
    mean_n = max(1, math.ceil(mean_rate_rps * (1 + HEADROOM) / capacity - 1e-9))
    peak_n = max(1, math.ceil(peak_rate_rps * (1 + HEADROOM) / capacity - 1e-9))
    return mean_n, peak_n


def run_static(
    config: AcceleratorConfig,
    requests: Sequence[Request],
    duration_s: float,
    replicas: int,
    batch_policy: BatchPolicy = BatchPolicy(),
    queue_policy: QueuePolicy = QueuePolicy(),
    plan_policy: str = "adaptive-2",
    coster: Optional[BatchCoster] = None,
) -> Tuple[ServingReport, float]:
    """Serve the workload on a fixed least-loaded fleet; returns (report,
    chip-seconds).

    Chip-seconds for a static fleet are ``replicas * makespan`` — the
    provisioned chips are held for the entire run, which is exactly the
    cost the autoscaler exists to avoid.
    """
    engine = ServingEngine(
        config,
        batch_policy=batch_policy,
        queue_policy=queue_policy,
        replicas=replicas,
        routing="least-loaded",
        plan_policy=plan_policy,
        coster=coster,
    )
    report = engine.run(requests, duration_s)
    chip_seconds = replicas * float(report.summary["makespan_s"])
    return report, chip_seconds


def run_static_baselines(
    config: AcceleratorConfig,
    coster: BatchCoster,
    tenants: Sequence[TenantSpec],
    requests: Sequence[Request],
    duration_s: float,
    peak_rate_rps: float,
    batch_policy: BatchPolicy,
    queue_policy: QueuePolicy,
    plan_policy: str = "adaptive-2",
) -> Dict[str, Tuple[int, ServingReport, float]]:
    """Size and serve the mean- and peak-provisioned static fleets.

    The mean fleet is sized for the workload's mean arrival rate, the peak
    fleet for ``peak_rate_rps`` (:func:`static_fleet_sizes`); each then
    serves ``requests`` through :func:`run_static`.  Returns
    ``{"static_mean": ..., "static_peak": ...}``, each ``(replicas,
    report, chip-seconds)``.
    """
    sizes = static_fleet_sizes(
        coster, tenants, len(requests) / duration_s, peak_rate_rps,
        batch_policy.max_batch,
    )
    baselines = {}
    for name, replicas in zip(("static_mean", "static_peak"), sizes):
        report, chip_seconds = run_static(
            config, requests, duration_s, replicas, batch_policy, queue_policy,
            plan_policy, coster,
        )
        baselines[name] = (replicas, report, chip_seconds)
    return baselines
