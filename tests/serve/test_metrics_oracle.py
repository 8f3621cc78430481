"""Differential test: the columnar summary against the record-level one.

``RecordCollector`` is the original ``MetricsCollector``, kept verbatim: it
builds one :class:`~repro.serve.metrics.RequestRecord` per completion and
reduces them record by record.  The columnar collector, logging rows of
each lane's request stream where the record collector logs requests, must
render the same summary JSON, byte for byte, and return the same records from
``completed``, over generated batch logs: empty logs, groups of one,
tenants with only sheds or only failures, tied finish times, floats over
twelve orders of magnitude, and merges of lanes into one collector.

``replicas`` is drawn positive: with zero replicas the record-level
reduction divided by zero, and the columnar one reports utilization 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.metrics import MetricsCollector, RequestRecord, to_json
from repro.serve.workload import Arrivals, Request


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


def _sum(values: Iterable[float]) -> float:
    """``values`` added left to right to 0.0 (Python 3.11's builtin
    ``sum``; 3.12's compensates, so it is spelled out)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _distribution_ms(values_s: Sequence[float]) -> Dict[str, float]:
    ms = [v * 1e3 for v in values_s]
    return {
        "mean": _round(_sum(ms) / len(ms)) if ms else 0.0,
        "p50": _round(percentile(ms, 50)),
        "p95": _round(percentile(ms, 95)),
        "p99": _round(percentile(ms, 99)),
        "max": _round(max(ms)) if ms else 0.0,
    }


class RecordCollector:
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

    def merge(self, other: "RecordCollector") -> None:
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
        total_wait = _sum(r.queue_wait_s for r in self.completed)
        total_busy_req = _sum(r.service_s for r in self.completed)
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


# -- the differential test ----------------------------------------------------

TENANTS = ("acme", "beta", "gamma")
NETWORKS = ("alexnet", "nin")
#: coarse values make ties (equal finishes, equal latencies) common; wide
#: floats make the order of summation matter: at 1e5 s and up, one ulp of
#: a millisecond sum shows in the sixth decimal
times = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0)),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)
spans = st.one_of(
    st.sampled_from((0.001, 0.01)),
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    st.floats(min_value=1e5, max_value=1e6, allow_nan=False),
)
#: a logged batch: start, service, network, replica, and per request
#: (tenant, queue wait, slo, rid rank key)
batches = st.tuples(
    times,
    spans,
    st.sampled_from(NETWORKS),
    st.integers(0, 3),
    st.lists(
        st.tuples(st.sampled_from(TENANTS), spans, spans, st.integers(0, 99)),
        min_size=1,
        max_size=3,
    ),
)
#: sheds and failures; two tenants never complete anything, so their
#: groups hold only sheds, only failures, or both
outcomes = st.lists(
    st.tuples(
        st.sampled_from(TENANTS + ("delta", "omega")),
        st.sampled_from(("queue_full", "no_replicas")),
    ),
    max_size=4,
)
#: one to three lanes, each a batch log and its sheds and failures
lanes = st.lists(
    st.tuples(st.lists(batches, max_size=5), outcomes), min_size=1, max_size=3
)


def _requests(logs):
    """Each logged batch's requests; rids interleave across the logs."""
    keys = sorted(
        (key, n, i, j)
        for n, log in enumerate(logs)
        for i, (*_, members) in enumerate(log)
        for j, (*_, key) in enumerate(members)
    )
    rids = {(n, i, j): rid for rid, (_, n, i, j) in enumerate(keys)}
    return [
        [
            [
                Request(
                    rid=rids[n, i, j],
                    tenant=tenant,
                    network=network,
                    arrival_s=max(0.0, start - wait),
                    deadline_s=max(0.0, start - wait) + slo,
                )
                for j, (tenant, wait, slo, _) in enumerate(members)
            ]
            for i, (start, _, network, _, members) in enumerate(log)
        ]
        for n, log in enumerate(logs)
    ]


def _stream(batch_requests, outcomes) -> Tuple[Arrivals, Dict[int, int]]:
    """A lane's request stream — its batches' requests, then one request
    per shed or failure (rid ``-1 - k`` for the ``k``-th) — and each
    rid's row in it."""
    extra = [
        Request(-1 - k, tenant, "alexnet", 0.0, 0.0)
        for k, (tenant, _) in enumerate(outcomes)
    ]
    stream = Arrivals.from_requests(
        [request for batch in batch_requests for request in batch] + extra
    )
    return stream, {rid: row for row, rid in enumerate(stream.rids().tolist())}


def _fill(pair, log, batch_requests, outcomes, row) -> None:
    """Log the same batches, sheds and failures: request objects in the
    record collector, stream rows (``row`` maps rids) in the columnar one."""
    new, old = pair
    for (start, service, network, replica, _), batch in zip(log, batch_requests):
        old.record_served(batch, start, start + service, replica)
        rows = [row[request.rid] for request in batch]
        new.record_served(rows, start, start + service, replica, network)
    for k, (tenant, reason) in enumerate(outcomes):
        if reason == "no_replicas":
            old.record_failure(tenant, reason)
            new.record_failure(row[-1 - k], reason)
        else:
            old.record_shed(tenant, reason)
            new.record_shed(row[-1 - k], reason)


@settings(max_examples=100, deadline=None)
@given(
    lane_specs=lanes,
    tail=st.lists(batches, max_size=2),
    duration_s=st.one_of(st.sampled_from((0.0, 0.5, 2.0)), spans),
    replicas=st.integers(min_value=1, max_value=4),
    busy_s=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    makespan_s=st.one_of(st.none(), spans),
)
def test_columnar_summary_matches_record_summary(
    lane_specs, tail, duration_s, replicas, busy_s, makespan_s
):
    logs = [log for log, _ in lane_specs] + [tail]
    *lane_requests, tail_requests = _requests(logs)
    pairs = []
    for (log, terminal), requests in zip(lane_specs, lane_requests):
        stream, row = _stream(requests, terminal)
        pair = (MetricsCollector(stream), RecordCollector())
        _fill(pair, log, requests, terminal, row)
        pairs.append(pair)
    got, want = pairs[0]
    for new, old in pairs[1:]:
        got.merge(new)
        want.merge(old)
    # completions logged after a merge follow the merged ones, their
    # requests ingested after the merged lanes' streams
    stream, row = _stream(tail_requests, [])
    base = len(got.stream)
    got.stream = got.stream.concat(stream)
    row = {rid: base + r for rid, r in row.items()}
    _fill((got, want), tail, tail_requests, [], row)

    args = (duration_s, replicas, busy_s, makespan_s)
    assert to_json(got.summary(*args)) == to_json(want.summary(*args))
    assert got.completed == want.completed
    assert got.batch_sizes == want.batch_sizes
