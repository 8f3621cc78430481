"""SLO accounting: a columnar completion log, reduced to latency
percentiles, goodput, shed rate and utilization.

The collector logs one row per batch run on a replica (start, finish,
replica, size, network) and the batch's row numbers in the request
stream (:class:`~repro.serve.workload.Arrivals`), so each completion's
columns (arrival, deadline, tenant, network) are gathered from the
stream by row when a reduction needs them.  Shed and failed requests are
counted by reason and logged by row.  Reductions work on NumPy columns;
:class:`RequestRecord` objects are built only when a caller asks for
:attr:`MetricsCollector.completed`.

The summary is a plain dict stable enough to diff byte for byte: every
float is rounded to microsecond-ish precision and every mapping is
emitted with sorted keys, so two runs with the same seed produce
identical JSON.  It is also the dict a record-by-record reduction gives:
percentiles interpolate on one sorted array per distribution, and means
and totals add a column left to right from 0.0 in completion order, in C
(``np.sum`` is pairwise, and Python 3.12's ``sum`` is compensated, so
neither can stand in).

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
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import check_real
from repro.serve.workload import Arrivals

__all__ = [
    "Columns",
    "RequestRecord",
    "percentile",
    "sorted_percentile",
    "MetricsCollector",
    "to_json",
]


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


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    check_real(q, "percentile q", ge=0, le=100, error=ValueError)
    return sorted_percentile(sorted(values), q)


def _round(x: float) -> float:
    return round(x, 6)


def _sum(values: np.ndarray) -> float:
    """``values`` added left to right to 0.0, as a Python float (the
    additions Python 3.11's builtin ``sum`` makes; 3.12's compensates)."""
    if not len(values):
        return 0.0
    return 0.0 + float(np.add.accumulate(values)[-1])


def _rows(log: array, index: Optional[np.ndarray] = None) -> np.ndarray:
    """The row numbers in ``log`` (an ``array('q')``), or those at
    ``index``, as a new int64 array: the buffer view is released before
    the log grows again."""
    if index is None:
        return np.array(log, dtype=np.int64)
    return np.frombuffer(log, dtype=np.int64)[index]


def _sorted_codes(
    codes: np.ndarray, names: Sequence[str]
) -> Tuple[np.ndarray, List[str]]:
    """Re-code ``codes`` (indices into ``names``) as indices into the
    sorted distinct names they use, and return those names."""
    used = sorted(names[code] for code in np.unique(codes).tolist())
    index = {name: code for code, name in enumerate(used)}
    lookup = np.array([index.get(name, -1) for name in names], dtype=np.intp)
    return lookup[codes], used


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
    ``batch_replicas``, ``batch_sizes`` and ``batch_networks`` (log order:
    dispatch order, or completion order in failover runs, which log
    neither a lost batch nor a hedge copy that finished second) and
    appends the batch's stream rows to the completion log.  ``stream`` is
    the request stream those rows index; the engine sets it as it ingests.
    """

    def __init__(self, stream: Optional[Arrivals] = None) -> None:
        self.stream = stream if stream is not None else Arrivals.from_requests(())
        self.batch_starts: List[float] = []
        self.batch_finishes: List[float] = []
        self.batch_replicas: List[int] = []
        self.batch_sizes: List[int] = []
        self.batch_networks: List[str] = []
        #: where each batch's rows start in ``_rows``
        self._offsets: List[int] = []
        #: the completion log: every logged batch's stream rows
        self._rows = array("q")
        #: completion order as indices into ``_rows`` once a merge has
        #: re-sorted it by rid; None means log order
        self._order: Optional[np.ndarray] = None
        self.shed_counts: Dict[str, int] = {}
        self._shed_rows = array("q")
        self.failed_counts: Dict[str, int] = {}
        self._failed_rows = array("q")

    # -- recording --------------------------------------------------------

    def record_served(
        self,
        rows: Sequence[int],
        start_s: float,
        finish_s: float,
        replica: int,
        network: str,
    ) -> None:
        """One batch of ``network`` run on ``replica``: its row, and its
        requests' stream rows."""
        self.batch_starts.append(start_s)
        self.batch_finishes.append(finish_s)
        self.batch_replicas.append(replica)
        self.batch_sizes.append(len(rows))
        self.batch_networks.append(network)
        self._offsets.append(len(self._rows))
        self._rows.extend(rows)

    def record_shed(self, row: int, reason: str) -> None:
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        self._shed_rows.append(row)

    def record_failure(self, row: int, reason: str) -> None:
        """A request the tier gave up on (crash retries exhausted, no
        replicas left) — a *terminal* outcome distinct from shedding, so
        the offered == completed + shed + failed invariant always holds."""
        self.failed_counts[reason] = self.failed_counts.get(reason, 0) + 1
        self._failed_rows.append(row)

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's log and counters into this one.

        The tenancy layer serves co-resident partitions as independent
        lanes, one collector each, then merges them into one fleet-level
        summary.  The other collector's stream is appended to this one's
        and its rows shifted past it.  Completions are re-sorted by request
        id afterwards (rids are globally unique per workload), so the
        merged summary is independent of lane order.
        """
        base, logged = len(self.stream), len(self._rows)
        order = np.concatenate(
            [self._completion_order(), other._completion_order() + logged]
        )
        self.stream = self.stream.concat(other.stream)
        self.batch_starts.extend(other.batch_starts)
        self.batch_finishes.extend(other.batch_finishes)
        self.batch_replicas.extend(other.batch_replicas)
        self.batch_sizes.extend(other.batch_sizes)
        self.batch_networks.extend(other.batch_networks)
        self._offsets.extend(offset + logged for offset in other._offsets)
        for mine, theirs in (
            (self._rows, other._rows),
            (self._shed_rows, other._shed_rows),
            (self._failed_rows, other._failed_rows),
        ):
            mine.frombytes((_rows(theirs) + base).tobytes())
        rids = self.stream.rids()[_rows(self._rows)]
        self._order = order[np.argsort(rids[order], kind="stable")]
        for reason, count in other.shed_counts.items():
            self.shed_counts[reason] = self.shed_counts.get(reason, 0) + count
        for reason, count in other.failed_counts.items():
            self.failed_counts[reason] = (
                self.failed_counts.get(reason, 0) + count
            )

    # -- reading the log --------------------------------------------------

    def _completion_order(self) -> np.ndarray:
        n = len(self._rows)
        if self._order is None:
            return np.arange(n)
        # completions logged after the last merge follow in log order
        return np.concatenate([self._order, np.arange(len(self._order), n)])

    def _by_tenant(self, rows: array) -> Dict[str, int]:
        """How many of the logged ``rows`` each tenant has (nonzero only)."""
        tenants = self.stream.tenants
        counts = np.bincount(self.stream.tenant[_rows(rows)], minlength=len(tenants))
        return {name: count for name, count in zip(tenants, counts.tolist()) if count}

    @property
    def completed(self) -> List[RequestRecord]:
        """One :class:`RequestRecord` per completion, in completion order
        (built on each call; the reductions never need them)."""
        requests = iter(self.stream.take(_rows(self._rows)))
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
            for start, finish, replica, size in zip(
                self.batch_starts,
                self.batch_finishes,
                self.batch_replicas,
                self.batch_sizes,
            )
            for request in islice(requests, size)
        ]
        if self._order is None:
            return records
        return [records[i] for i in self._completion_order().tolist()]

    def makespan(self, duration_s: float) -> float:
        """The later of ``duration_s`` and the last completion."""
        finishes = [f for f, size in zip(self.batch_finishes, self.batch_sizes) if size]
        return max([duration_s] + finishes)

    def columns(self, batches: Optional[Iterable[int]] = None) -> Columns:
        """Per-completion columns of the logged ``batches``, their requests
        in log order, or of every completion in completion order."""
        if batches is None:
            rows = _rows(self._rows)
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
            # each batch's log positions: its offset, plus 0..size-1
            counts = np.array(sizes, dtype=np.int64)
            shift = np.array([self._offsets[b] for b in batches], dtype=np.int64)
            shift -= np.cumsum(counts) - counts
            rows = _rows(
                self._rows, np.repeat(shift, counts) + np.arange(int(counts.sum()))
            )
        repeats = np.array(sizes, dtype=np.intp)
        start = np.repeat(np.array(starts, dtype=np.float64), repeats)
        finish = np.repeat(np.array(finishes, dtype=np.float64), repeats)
        if batches is None and self._order is not None:
            order = self._completion_order()
            rows, start, finish = rows[order], start[order], finish[order]
        stream = self.stream
        tenant, tenants = _sorted_codes(stream.tenant[rows], stream.tenants)
        network, networks = _sorted_codes(stream.network[rows], stream.networks)
        return Columns(
            arrival=stream.arrival[rows],
            deadline=stream.deadline[rows],
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

        shed_by_tenant = self._by_tenant(self._shed_rows)
        failed_by_tenant = self._by_tenant(self._failed_rows)
        tenants = sorted(set(by_tenant) | set(shed_by_tenant) | set(failed_by_tenant))
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
                        shed_by_tenant.get(t, 0),
                        failed_by_tenant.get(t, 0),
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
