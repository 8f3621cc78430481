"""The detector: sliding-window telemetry over the serving event stream.

A :class:`Detector` is stepped once per control epoch.  Each step reduces
everything that *happened* in the window ``(prev_epoch_end, epoch_end]``
into one :class:`WindowStats` record: latency percentiles against each
tenant's SLO, shed and deadline-miss rates, queue depth at the boundary,
per-replica utilization and observed/expected service ratios (the health
signal the planner's drain rule consumes against the failover health
checker's :data:`~repro.serve.failover.SLOW_THRESHOLD`).

The detector reads the engine's batch log.  A batch, and every
completion in it, belongs to the window its finish falls in, never the
window it was dispatched in.  Nothing in a window's stats depends on the
order its batches are read in — percentiles sort, health ratios are
per-batch maxima, and the network mix is read through sorted keys — so
the log is never re-sorted.

Window assignment is exact: every completion lands in exactly one window
(finish times are strictly greater than the dispatch instant, and the
engine never runs past the boundary the controller asked for), and shed /
arrival counters are cumulative-delta based, so summing any column over
the windows reproduces the run totals.  All floats are rounded the same
way :mod:`repro.serve.metrics` rounds, so the telemetry log is byte-stable
across reruns at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.serve.engine import AdaptiveServingEngine
from repro.serve.metrics import sorted_percentile
from repro.serve.workload import TenantSpec

__all__ = ["Detector", "WindowStats"]


def _round(x: float) -> float:
    return round(x, 6)


@dataclass(frozen=True)
class WindowStats:
    """Everything the planner may look at for one control epoch."""

    epoch: int
    start_s: float
    end_s: float
    #: arrivals processed in the window (admitted + shed)
    arrivals: int
    #: completions whose finish fell inside the window
    completed: int
    shed: int
    #: completions that met their deadline
    deadline_met: int
    queue_depth: int
    active_replicas: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: worst per-tenant p95 latency over that tenant's SLO (1.0 = at SLO);
    #: the planner's primary pressure signal
    slo_p95_frac: float
    shed_rate: float
    #: fleet busy chip-seconds over provisioned chip-seconds in the window
    utilization: float
    arrival_rate_rps: float
    #: per-network share of the window's arrivals-by-completion mix
    network_mix: Dict[str, float] = field(default_factory=dict)
    #: per-replica max observed/expected batch service ratio (1.0 = healthy)
    replica_service_ratio: Dict[int, float] = field(default_factory=dict)
    #: per-replica batches completing in the window (sample size for ratios)
    replica_batches: Dict[int, int] = field(default_factory=dict)

    @property
    def deadline_hit_rate(self) -> float:
        offered = self.completed + self.shed
        return self.deadline_met / offered if offered else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "start_ms": _round(self.start_s * 1e3),
            "end_ms": _round(self.end_s * 1e3),
            "arrivals": self.arrivals,
            "completed": self.completed,
            "shed": self.shed,
            "deadline_met": self.deadline_met,
            "queue_depth": self.queue_depth,
            "active_replicas": self.active_replicas,
            "p50_ms": _round(self.p50_ms),
            "p95_ms": _round(self.p95_ms),
            "p99_ms": _round(self.p99_ms),
            "slo_p95_frac": _round(self.slo_p95_frac),
            "shed_rate": _round(self.shed_rate),
            "utilization": _round(self.utilization),
            "arrival_rate_rps": _round(self.arrival_rate_rps),
            "network_mix": {
                k: _round(v) for k, v in sorted(self.network_mix.items())
            },
            "replica_service_ratio": {
                str(rid): _round(v)
                for rid, v in sorted(self.replica_service_ratio.items())
            },
        }


class Detector:
    """Incrementally windows an :class:`AdaptiveServingEngine`'s batch log.

    The detector holds a cursor into the engine's append-only batch log
    plus cumulative shed/arrival snapshots, so each :meth:`observe`
    touches only the batches logged since the previous epoch.  Batches
    dispatched in this window but finishing in a later one are parked in
    a small list until their window closes.
    """

    def __init__(
        self,
        engine: AdaptiveServingEngine,
        tenants: Sequence[TenantSpec],
    ) -> None:
        self.engine = engine
        self.slo_ms = {t.name: t.slo_ms for t in tenants}
        #: the next batch in the engine's log this detector has not read
        self._bi = 0
        self._prev_end = 0.0
        self._prev_shed = 0
        self._prev_arrivals = 0
        self._epoch = 0
        #: read batches whose finish lies beyond the last observed boundary
        self._parked: List[int] = []

    @classmethod
    def resume(
        cls,
        engine: AdaptiveServingEngine,
        tenants: Sequence[TenantSpec],
        boundary_s: float,
        epoch: int,
    ) -> "Detector":
        """Rebuild a detector mid-run after a control-plane crash.

        The engine's batch log is the ground truth a restarted loop still
        has: every batch dispatched by ``boundary_s`` is in it, and
        pre-crash windows consumed exactly the batches finishing at or
        before the boundary.  Reconstructing ``(cursor, parked batches,
        cumulative snapshots)`` from that state is therefore *exact* — the
        resumed detector's future windows are bit-identical to an
        uncrashed detector's.
        """
        detector = cls(engine, tenants)
        log = engine.metrics
        detector._bi = len(log.batch_sizes)
        detector._parked = [
            b for b, finish in enumerate(log.batch_finishes) if finish > boundary_s
        ]
        detector._prev_end = boundary_s
        detector._prev_shed = log.shed_total
        detector._prev_arrivals = engine.offered
        detector._epoch = epoch
        return detector

    def observe(self, t_end: float) -> WindowStats:
        """Reduce the window ``(prev_end, t_end]`` to one stats record."""
        if t_end <= self._prev_end and self._epoch:
            raise ConfigError(
                f"observe({t_end!r}) does not advance past {self._prev_end!r}"
            )
        engine = self.engine
        log = engine.metrics
        finishes = log.batch_finishes
        fresh = range(self._bi, len(finishes))
        self._bi = len(finishes)
        window: List[int] = []
        parked: List[int] = []
        for b in chain(self._parked, fresh):
            (window if finishes[b] <= t_end else parked).append(b)
        self._parked = parked

        shed_total = log.shed_total
        shed = shed_total - self._prev_shed
        self._prev_shed = shed_total
        arrivals = engine.offered - self._prev_arrivals
        self._prev_arrivals = engine.offered

        start_s = self._prev_end
        span = t_end - start_s
        cols = log.columns(window)
        latencies = (cols.finish - cols.arrival) * 1e3
        met = int(np.count_nonzero(cols.finish <= cols.deadline))
        ordered = np.sort(latencies)

        # worst per-tenant p95 over that tenant's SLO
        slo_frac = 0.0
        for code, tenant in enumerate(cols.tenants):
            slo = self.slo_ms.get(tenant)
            if slo:
                values = np.sort(latencies[cols.tenant == code])
                slo_frac = max(slo_frac, sorted_percentile(values, 95) / slo)

        # per-replica health: max observed/expected service ratio over the
        # window's batches
        starts, replicas = log.batch_starts, log.batch_replicas
        networks, sizes = log.batch_networks, log.batch_sizes
        ratios: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for b in window:
            rid = replicas[b]
            # expected cost under the replica's *own* coster: a degraded
            # replica replanned through Algorithm 2 reads healthy again,
            # so the ratio separates faults from load
            expected = engine.coster_for(rid).batch_seconds(networks[b], sizes[b])
            if expected > 0:
                ratio = (finishes[b] - starts[b]) / expected
                ratios[rid] = max(ratios.get(rid, 0.0), ratio)
                counts[rid] = counts.get(rid, 0) + 1

        completed = len(latencies)
        mix_counts = np.bincount(cols.network, minlength=len(cols.networks))

        busy = sum(engine.busy_overlap(start_s, t_end).values())
        provisioned = engine.provisioned_overlap(start_s, t_end)

        stats = WindowStats(
            epoch=self._epoch,
            start_s=start_s,
            end_s=t_end,
            arrivals=arrivals,
            completed=completed,
            shed=shed,
            deadline_met=met,
            queue_depth=engine.queue_depth(),
            active_replicas=engine.n_active(),
            p50_ms=sorted_percentile(ordered, 50),
            p95_ms=sorted_percentile(ordered, 95),
            p99_ms=sorted_percentile(ordered, 99),
            slo_p95_frac=slo_frac,
            shed_rate=shed / arrivals if arrivals else 0.0,
            utilization=busy / provisioned if provisioned else 0.0,
            arrival_rate_rps=arrivals / span if span else 0.0,
            network_mix={
                net: int(count) / completed
                for net, count in zip(cols.networks, mix_counts)
            },
            replica_service_ratio=ratios,
            replica_batches=counts,
        )
        self._prev_end = t_end
        self._epoch += 1
        return stats
