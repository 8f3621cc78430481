"""The admission queue and metrics collector as they were before the
request stream became columnar, kept verbatim as the serving-loop
oracles' reference.

``AdmissionQueue`` (with ``ShedEvent``) queues :class:`Request` objects,
and ``MetricsCollector`` keeps each logged batch's ``Request`` objects
and rebuilds its columns from them.  The reference loops in
``test_engine_oracle.py``, ``test_event_loop_oracle.py`` and
``test_failover_oracle.py`` run over these two classes, so they do not
move with the row-carrying queue and collector they check.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.serve.batcher import BatchPolicy
from repro.serve.metrics import RequestRecord
from repro.serve.queue import SHED_EXPIRED, SHED_MAX_AGE, SHED_QUEUE_FULL, QueuePolicy
from repro.serve.workload import Request

__all__ = ["AdmissionQueue", "MetricsCollector", "ShedEvent"]

_ARRIVAL = attrgetter("arrival_s")
_DEADLINE = attrgetter("deadline_s")
_TENANT = attrgetter("tenant")
_NETWORK = attrgetter("network")
_RID = attrgetter("rid")


@dataclass(frozen=True)
class ShedEvent:
    """One dropped request and why."""

    request: Request
    reason: str
    time_s: float


class AdmissionQueue:
    """Per-network request queues under one :class:`QueuePolicy`.

    Each group is a heap of ``[*order key, seq, request]`` entries (``seq``
    counts offers, so ties pop in offer order): O(log depth) offer, O(1)
    oldest arrival, O(batch · log depth) pop.  Under ``edf`` a second heap
    orders the same entries by arrival; a pop sets the entry's request slot
    to ``None`` and the arrival heap discards such entries from its top.
    """

    def __init__(self, policy: QueuePolicy = QueuePolicy()) -> None:
        self.policy = policy
        self._edf = policy.order == "edf"
        self._groups: Dict[str, List[list]] = {}
        #: edf only: network -> heap of (arrival_s, rid, seq, group entry)
        self._arrivals: Dict[str, List[tuple]] = {}
        self._seq = 0
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    def depth(self, network: Optional[str] = None) -> int:
        if network is None:
            return self._depth
        return len(self._groups.get(network, ()))

    def networks(self) -> List[str]:
        """Networks with queued requests, in deterministic name order."""
        return sorted(name for name, group in self._groups.items() if group)

    def oldest_arrival(self, network: str) -> float:
        """Arrival time of the longest-waiting request for ``network``."""
        if not self._edf:
            return self._groups[network][0][0]
        arrivals = self._arrivals[network]
        while arrivals[0][3][-1] is None:
            heapq.heappop(arrivals)
        return arrivals[0][0]

    def ready_time(self, network: str, batch_policy: BatchPolicy) -> float:
        """When ``network``'s (non-empty) group may dispatch."""
        return batch_policy.ready_time(
            self.oldest_arrival(network), len(self._groups[network])
        )

    def next_ready(self, batch_policy: BatchPolicy) -> Tuple[float, float, str]:
        """``(ready_time, oldest_arrival, network)`` of the group to dispatch next.

        The tuple is a total order, so the minimum does not depend on the
        order the groups are visited in.
        """
        candidates = []
        for net, group in self._groups.items():
            if group:
                oldest = self.oldest_arrival(net)
                ready = batch_policy.ready_time(oldest, len(group))
                candidates.append((ready, oldest, net))
        return min(candidates)

    # -- admission --------------------------------------------------------

    def offer(self, request: Request, now: float) -> Optional[ShedEvent]:
        """Admit ``request`` or return the :class:`ShedEvent` rejecting it."""
        if self._depth >= self.policy.max_depth:
            return ShedEvent(request, SHED_QUEUE_FULL, now)
        seq = self._seq
        self._seq += 1
        if self._edf:
            entry = [request.deadline_s, request.arrival_s, request.rid, seq, request]
            heapq.heappush(
                self._arrivals.setdefault(request.network, []),
                (request.arrival_s, request.rid, seq, entry),
            )
        else:
            entry = [request.arrival_s, request.rid, seq, request]
        heapq.heappush(self._groups.setdefault(request.network, []), entry)
        self._depth += 1
        return None

    # -- dispatch ---------------------------------------------------------

    def pop_batch(
        self, network: str, max_batch: int, now: float
    ) -> Tuple[List[Request], List[ShedEvent]]:
        """Take up to ``max_batch`` servable requests for ``network``.

        Requests that aged out (or expired) while queued are shed rather
        than returned; shedding continues past them so a stale head of the
        queue cannot starve fresh requests behind it.
        """
        group = self._groups.get(network, [])
        batch: List[Request] = []
        shed: List[ShedEvent] = []
        while group and len(batch) < max_batch:
            entry = heapq.heappop(group)
            request = entry[-1]
            entry[-1] = None  # dead in the edf arrival heap
            age = now - request.arrival_s
            if self.policy.max_age_s is not None and age > self.policy.max_age_s:
                shed.append(ShedEvent(request, SHED_MAX_AGE, now))
            elif self.policy.shed_expired and now > request.deadline_s:
                shed.append(ShedEvent(request, SHED_EXPIRED, now))
            else:
                batch.append(request)
        self._depth -= len(batch) + len(shed)
        arrivals = self._arrivals.get(network, [])
        if len(arrivals) > 2 * len(group):  # keep it within twice the depth
            arrivals[:] = [a for a in arrivals if a[3][-1] is not None]
            heapq.heapify(arrivals)
        return batch, shed


# -- the metrics collector --------------------------------------------------


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of values already in ascending order (a list or
    an array), with the same interpolation and the same float result."""
    n = len(ordered)
    if not n:
        return 0.0
    if n == 1:
        return float(ordered[0])
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(ordered[lo]) * (1 - frac) + float(ordered[hi]) * frac


def _round(x: float) -> float:
    return round(x, 6)


def _sum(values: np.ndarray) -> float:
    """``values`` added left to right to 0.0 (Python 3.11's builtin
    ``sum``; 3.12's compensates, so it is spelled out)."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _floats(requests: Sequence[Request], field: attrgetter) -> np.ndarray:
    return np.fromiter(map(field, requests), np.float64, len(requests))


def _codes(values: List[str]) -> Tuple[np.ndarray, List[str]]:
    """Each value's index into the sorted distinct values, and those values."""
    names = sorted(set(values))
    index = {name: code for code, name in enumerate(names)}
    return np.fromiter(map(index.__getitem__, values), np.intp, len(values)), names


def _distribution_ms(values_s: np.ndarray) -> Dict[str, float]:
    if not len(values_s):
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    ms = values_s * 1e3
    mean = _sum(ms) / len(ms)
    ms.sort()
    return {
        "mean": _round(mean),
        "p50": _round(sorted_percentile(ms, 50)),
        "p95": _round(sorted_percentile(ms, 95)),
        "p99": _round(sorted_percentile(ms, 99)),
        "max": _round(float(ms[-1])),
    }


class Columns(NamedTuple):
    """Per-completion columns of some logged batches, one row per request."""

    arrival: np.ndarray
    deadline: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    #: index into ``tenants`` (the sorted distinct tenant names)
    tenant: np.ndarray
    tenants: List[str]
    #: index into ``networks`` (the sorted distinct network names)
    network: np.ndarray
    networks: List[str]


class MetricsCollector:
    """A columnar log of completions plus shed/failure counters.

    Every batch run adds one row to ``batch_starts``, ``batch_finishes``,
    ``batch_replicas`` and ``batch_sizes`` (log order: dispatch order, or
    completion order in failover runs, which log neither a lost batch nor
    a hedge copy that finished second) and appends the batch's requests to
    the completion log.
    """

    def __init__(self) -> None:
        self.batch_starts: List[float] = []
        self.batch_finishes: List[float] = []
        self.batch_replicas: List[int] = []
        self.batch_sizes: List[int] = []
        #: where each batch's requests start in ``_requests``
        self._offsets: List[int] = []
        self._requests: List[Request] = []
        #: completion order as indices into ``_requests`` once a merge has
        #: re-sorted it by rid; None means log order
        self._order: Optional[np.ndarray] = None
        self.shed_counts: Dict[str, int] = {}
        self._shed_by_tenant: Dict[str, int] = {}
        self.failed_counts: Dict[str, int] = {}
        self._failed_by_tenant: Dict[str, int] = {}

    # -- recording --------------------------------------------------------

    def record_served(
        self, batch: Sequence[Request], start_s: float, finish_s: float, replica: int
    ) -> None:
        """One batch run on ``replica``: its row, and its requests."""
        self.batch_starts.append(start_s)
        self.batch_finishes.append(finish_s)
        self.batch_replicas.append(replica)
        self.batch_sizes.append(len(batch))
        self._offsets.append(len(self._requests))
        self._requests.extend(batch)

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
        """Fold another collector's log and counters into this one.

        The tenancy layer serves co-resident partitions as independent
        lanes, one collector each, then merges them into one fleet-level
        summary.  Completions are re-sorted by request id afterwards (rids
        are globally unique per workload), so the merged summary is
        independent of lane order.
        """
        base = len(self._requests)
        order = np.concatenate(
            [self._completion_order(), other._completion_order() + base]
        )
        self.batch_starts.extend(other.batch_starts)
        self.batch_finishes.extend(other.batch_finishes)
        self.batch_replicas.extend(other.batch_replicas)
        self.batch_sizes.extend(other.batch_sizes)
        self._offsets.extend(offset + base for offset in other._offsets)
        self._requests.extend(other._requests)
        rids = np.fromiter(map(_RID, self._requests), np.int64, len(self._requests))
        self._order = order[np.argsort(rids[order], kind="stable")]
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

    # -- reading the log --------------------------------------------------

    def _completion_order(self) -> np.ndarray:
        n = len(self._requests)
        if self._order is None:
            return np.arange(n)
        # completions logged after the last merge follow in log order
        return np.concatenate([self._order, np.arange(len(self._order), n)])

    @property
    def completed(self) -> List[RequestRecord]:
        """One :class:`RequestRecord` per completion, in completion order
        (built on each call; the reductions never need them)."""
        records = [
            RequestRecord(
                rid=request.rid,
                tenant=request.tenant,
                network=request.network,
                arrival_s=request.arrival_s,
                start_s=start,
                finish_s=finish,
                deadline_s=request.deadline_s,
                batch_size=size,
                replica=replica,
            )
            for start, finish, replica, size, offset in zip(
                self.batch_starts,
                self.batch_finishes,
                self.batch_replicas,
                self.batch_sizes,
                self._offsets,
            )
            for request in self._requests[offset : offset + size]
        ]
        if self._order is None:
            return records
        return [records[i] for i in self._completion_order().tolist()]

    def batch_network(self, batch: int) -> str:
        """The network batch ``batch`` ran (a batch shares one network)."""
        return self._requests[self._offsets[batch]].network

    def makespan(self, duration_s: float) -> float:
        """The later of ``duration_s`` and the last completion."""
        finishes = [f for f, size in zip(self.batch_finishes, self.batch_sizes) if size]
        return max([duration_s] + finishes)

    def columns(self, batches: Optional[Iterable[int]] = None) -> Columns:
        """Per-completion columns of the logged ``batches``, their requests
        in log order, or of every completion in completion order."""
        if batches is None:
            requests = self._requests
            starts, finishes, sizes = (
                self.batch_starts,
                self.batch_finishes,
                self.batch_sizes,
            )
        else:
            batches = list(batches)
            starts = [self.batch_starts[b] for b in batches]
            finishes = [self.batch_finishes[b] for b in batches]
            sizes = [self.batch_sizes[b] for b in batches]
            requests = list(
                chain.from_iterable(
                    self._requests[self._offsets[b] : self._offsets[b] + size]
                    for b, size in zip(batches, sizes)
                )
            )
        repeats = np.array(sizes, dtype=np.intp)
        start = np.repeat(np.array(starts, dtype=np.float64), repeats)
        finish = np.repeat(np.array(finishes, dtype=np.float64), repeats)
        if batches is None and self._order is not None:
            order = self._completion_order()
            requests = [requests[i] for i in order.tolist()]
            start, finish = start[order], finish[order]
        tenant, tenants = _codes(list(map(_TENANT, requests)))
        network, networks = _codes(list(map(_NETWORK, requests)))
        return Columns(
            arrival=_floats(requests, _ARRIVAL),
            deadline=_floats(requests, _DEADLINE),
            start=start,
            finish=finish,
            tenant=tenant,
            tenants=tenants,
            network=network,
            networks=networks,
        )

    # -- reduction --------------------------------------------------------

    @property
    def shed_total(self) -> int:
        return sum(self.shed_counts.values())

    @property
    def failed_total(self) -> int:
        return sum(self.failed_counts.values())

    def summary(
        self,
        duration_s: float,
        replicas: int,
        busy_s: float,
        makespan_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Reduce everything recorded into one deterministic dict."""
        if makespan_s is None:
            makespan_s = self.makespan(duration_s)
        cols = self.columns()
        latency = cols.finish - cols.arrival
        wait = cols.start - cols.arrival
        service = cols.finish - cols.start
        met = cols.finish <= cols.deadline
        by_tenant = dict(zip(cols.tenants, _groups(cols.tenant, len(cols.tenants))))
        by_network = dict(zip(cols.networks, _groups(cols.network, len(cols.networks))))
        del cols
        total_wait = _sum(wait)
        denom = total_wait + _sum(service)

        def group(index, shed: int, failed: int = 0) -> Dict[str, object]:
            # each group's columns are temporaries, freed as it returns
            return _group_summary(
                latency[index],
                wait[index],
                service[index],
                met[index],
                shed,
                duration_s,
                failed,
            )

        tenants = sorted(
            set(by_tenant) | set(self._shed_by_tenant) | set(self._failed_by_tenant)
        )
        no_completions = np.zeros(0, dtype=np.intp)
        out: Dict[str, object] = group(
            slice(None), self.shed_total, self.failed_total
        )
        out.update(
            {
                "duration_s": _round(duration_s),
                "makespan_s": _round(makespan_s),
                "replicas": replicas,
                # a fleet whose only replica crashed as it joined peaks at 0
                "utilization": _round(busy_s / (replicas * makespan_s))
                if replicas and makespan_s
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
                    t: group(
                        by_tenant.get(t, no_completions),
                        self._shed_by_tenant.get(t, 0),
                        self._failed_by_tenant.get(t, 0),
                    )
                    for t in tenants
                },
                "per_network": {
                    n: group(index, 0) for n, index in by_network.items()
                },
            }
        )
        return out


def _groups(codes: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """Each code's positions in ``codes``, ascending (one stable argsort)."""
    order = np.argsort(codes, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(codes, minlength=n_groups))])
    return [order[bounds[g] : bounds[g + 1]] for g in range(n_groups)]


def _group_summary(
    latency: np.ndarray,
    wait: np.ndarray,
    service: np.ndarray,
    met: np.ndarray,
    shed: int,
    duration_s: float,
    failed: int = 0,
) -> Dict[str, object]:
    completed = len(latency)
    offered = completed + shed + failed
    within = int(np.count_nonzero(met))
    return {
        "offered": offered,
        "completed": completed,
        "shed": shed,
        "shed_rate": _round(shed / offered) if offered else 0.0,
        "failed": failed,
        "deadline_met": within,
        "deadline_hit_rate": _round(within / offered) if offered else 0.0,
        "goodput_rps": _round(within / duration_s) if duration_s else 0.0,
        "throughput_rps": _round(completed / duration_s) if duration_s else 0.0,
        "latency_ms": _distribution_ms(latency),
        "queue_wait_ms": _distribution_ms(wait),
        "service_ms": _distribution_ms(service),
    }
