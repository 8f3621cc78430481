"""SLO accounting: latency percentiles, goodput, shed rate, utilization.

The collector records one :class:`RequestRecord` per completed request and
one shed counter per dropped request, then reduces them into a plain-dict
summary that is stable enough to diff byte-for-byte: every float is rounded
to microsecond-ish precision and every mapping is emitted with sorted keys,
so two runs with the same seed produce identical JSON.

Glossary (all times in milliseconds unless suffixed otherwise):

* **latency** — arrival to completion (queue wait + service);
* **queue_wait** — arrival to batch dispatch;
* **service** — dispatch to completion (the batch's accelerator occupancy);
* **goodput_rps** — completed-within-deadline requests per second of
  simulated duration (shed and late answers do not count);
* **shed_rate** — shed requests over offered requests;
* **utilization** — accelerator busy time over ``replicas * makespan``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.serve.workload import Request

__all__ = ["RequestRecord", "percentile", "MetricsCollector", "to_json"]


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one completed request."""

    rid: int
    tenant: str
    network: str
    arrival_s: float
    start_s: float
    finish_s: float
    deadline_s: float
    batch_size: int
    replica: int

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def met_deadline(self) -> bool:
        return self.finish_s <= self.deadline_s


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def _round(x: float) -> float:
    return round(x, 6)


def _distribution_ms(values_s: Sequence[float]) -> Dict[str, float]:
    ms = [v * 1e3 for v in values_s]
    return {
        "mean": _round(sum(ms) / len(ms)) if ms else 0.0,
        "p50": _round(percentile(ms, 50)),
        "p95": _round(percentile(ms, 95)),
        "p99": _round(percentile(ms, 99)),
        "max": _round(max(ms)) if ms else 0.0,
    }


class MetricsCollector:
    """Accumulates completions and sheds; reduces to a summary dict."""

    def __init__(self) -> None:
        self.completed: List[RequestRecord] = []
        self.shed_counts: Dict[str, int] = {}
        self._shed_by_tenant: Dict[str, int] = {}
        self.failed_counts: Dict[str, int] = {}
        self._failed_by_tenant: Dict[str, int] = {}
        self.batch_sizes: List[int] = []

    # -- recording --------------------------------------------------------

    def record_completion(self, record: RequestRecord) -> None:
        self.completed.append(record)

    def record_batch(self, size: int) -> None:
        self.batch_sizes.append(size)

    def record_served(
        self, batch: Sequence[Request], start_s: float, finish_s: float, replica: int
    ) -> None:
        """One batch run on ``replica``: its size, and a record per request."""
        self.record_batch(len(batch))
        for request in batch:
            self.record_completion(
                RequestRecord(
                    rid=request.rid,
                    tenant=request.tenant,
                    network=request.network,
                    arrival_s=request.arrival_s,
                    start_s=start_s,
                    finish_s=finish_s,
                    deadline_s=request.deadline_s,
                    batch_size=len(batch),
                    replica=replica,
                )
            )

    def record_shed(self, tenant: str, reason: str) -> None:
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        self._shed_by_tenant[tenant] = self._shed_by_tenant.get(tenant, 0) + 1

    def record_failure(self, tenant: str, reason: str) -> None:
        """A request the tier gave up on (crash retries exhausted, no
        replicas left) — a *terminal* outcome distinct from shedding, so
        the offered == completed + shed + failed invariant always holds."""
        self.failed_counts[reason] = self.failed_counts.get(reason, 0) + 1
        self._failed_by_tenant[tenant] = self._failed_by_tenant.get(tenant, 0) + 1

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's records into this one.

        The tenancy layer serves co-resident partitions as independent
        lanes, one collector each, then merges them into one fleet-level
        summary.  Completions are re-sorted by request id afterwards (rids
        are globally unique per workload), so the merged summary is
        independent of lane order.
        """
        self.completed.extend(other.completed)
        self.completed.sort(key=lambda r: r.rid)
        self.batch_sizes.extend(other.batch_sizes)
        for reason, count in other.shed_counts.items():
            self.shed_counts[reason] = self.shed_counts.get(reason, 0) + count
        for tenant, count in other._shed_by_tenant.items():
            self._shed_by_tenant[tenant] = (
                self._shed_by_tenant.get(tenant, 0) + count
            )
        for reason, count in other.failed_counts.items():
            self.failed_counts[reason] = (
                self.failed_counts.get(reason, 0) + count
            )
        for tenant, count in other._failed_by_tenant.items():
            self._failed_by_tenant[tenant] = (
                self._failed_by_tenant.get(tenant, 0) + count
            )

    # -- reduction --------------------------------------------------------

    @property
    def shed_total(self) -> int:
        return sum(self.shed_counts.values())

    @property
    def failed_total(self) -> int:
        return sum(self.failed_counts.values())

    def _group_summary(
        self,
        records: Sequence[RequestRecord],
        shed: int,
        duration_s: float,
        failed: int = 0,
    ) -> Dict[str, object]:
        offered = len(records) + shed + failed
        within = sum(1 for r in records if r.met_deadline)
        return {
            "offered": offered,
            "completed": len(records),
            "shed": shed,
            "shed_rate": _round(shed / offered) if offered else 0.0,
            "failed": failed,
            "deadline_met": within,
            "deadline_hit_rate": _round(within / offered) if offered else 0.0,
            "goodput_rps": _round(within / duration_s) if duration_s else 0.0,
            "throughput_rps": _round(len(records) / duration_s) if duration_s else 0.0,
            "latency_ms": _distribution_ms([r.latency_s for r in records]),
            "queue_wait_ms": _distribution_ms([r.queue_wait_s for r in records]),
            "service_ms": _distribution_ms([r.service_s for r in records]),
        }

    def summary(
        self,
        duration_s: float,
        replicas: int,
        busy_s: float,
        makespan_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Reduce everything recorded into one deterministic dict."""
        if makespan_s is None:
            makespan_s = max(
                [duration_s] + [r.finish_s for r in self.completed]
            )
        total_wait = sum(r.queue_wait_s for r in self.completed)
        total_busy_req = sum(r.service_s for r in self.completed)
        denom = total_wait + total_busy_req
        tenants = sorted(
            {r.tenant for r in self.completed}
            | set(self._shed_by_tenant)
            | set(self._failed_by_tenant)
        )
        networks = sorted({r.network for r in self.completed})
        out: Dict[str, object] = self._group_summary(
            self.completed, self.shed_total, duration_s, self.failed_total
        )
        out.update(
            {
                "duration_s": _round(duration_s),
                "makespan_s": _round(makespan_s),
                "replicas": replicas,
                "utilization": _round(busy_s / (replicas * makespan_s))
                if makespan_s
                else 0.0,
                "queue_wait_fraction": _round(total_wait / denom) if denom else 0.0,
                "shed_by_reason": dict(sorted(self.shed_counts.items())),
                "failed_by_reason": dict(sorted(self.failed_counts.items())),
                "batches": len(self.batch_sizes),
                "mean_batch_size": _round(
                    sum(self.batch_sizes) / len(self.batch_sizes)
                )
                if self.batch_sizes
                else 0.0,
                "per_tenant": {
                    t: self._group_summary(
                        [r for r in self.completed if r.tenant == t],
                        self._shed_by_tenant.get(t, 0),
                        duration_s,
                        self._failed_by_tenant.get(t, 0),
                    )
                    for t in tenants
                },
                "per_network": {
                    n: self._group_summary(
                        [r for r in self.completed if r.network == n],
                        0,
                        duration_s,
                    )
                    for n in networks
                },
            }
        )
        return out


def to_json(summary: Dict[str, object]) -> str:
    """Canonical JSON rendering: sorted keys, stable layout, newline-terminated."""
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def render_summary(summary: Dict[str, object]) -> str:
    """Human-readable digest of a serving summary (the CLI's default view)."""
    from repro.analysis.report import format_table

    eng = summary.get("engine", {})
    lines = [
        f"served {summary['completed']}/{summary['offered']} requests "
        f"({summary['shed']} shed) over {summary['duration_s']:g} s "
        f"on {eng.get('config', '?')} x{summary['replicas']} "
        f"[{eng.get('batching', '?')}, {eng.get('routing', '?')}]",
        f"goodput {summary['goodput_rps']:.1f} req/s "
        f"(deadline hit rate {summary['deadline_hit_rate']:.1%}), "
        f"utilization {summary['utilization']:.1%}, "
        f"mean batch {summary['mean_batch_size']:g} "
        f"over {summary['batches']} batches, "
        f"queue-wait fraction {summary['queue_wait_fraction']:.1%}",
        "",
    ]
    rows = []
    for tenant, group in sorted(summary["per_tenant"].items()):
        lat = group["latency_ms"]
        wait = group["queue_wait_ms"]
        rows.append(
            [
                tenant,
                str(group["offered"]),
                str(group["shed"]),
                f"{group['goodput_rps']:.1f}",
                f"{lat['p50']:.1f}",
                f"{lat['p95']:.1f}",
                f"{lat['p99']:.1f}",
                f"{wait['p95']:.1f}",
            ]
        )
    lines.append(
        format_table(
            [
                "tenant",
                "offered",
                "shed",
                "goodput/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "wait p95 ms",
            ],
            rows,
        )
    )
    return "\n".join(lines)
