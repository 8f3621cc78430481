"""Admission queue: bounded depth, deadline-aware ordering, load shedding.

The queue is the pressure-relief valve between open-loop arrivals and the
accelerator's finite service rate.  Three policies interact:

* **bounded depth** — an arrival finding ``max_depth`` requests already
  queued is rejected on the spot (backpressure to the caller);
* **ordering** — within a network group, ``fifo`` serves in arrival order,
  ``edf`` (earliest deadline first) serves the most urgent request first,
  which trades mean latency for goodput when tenants carry mixed SLOs;
* **age shedding** — at dispatch time, requests that have already waited
  past ``max_age_s`` (or past their own deadline, with ``shed_expired``)
  are dropped instead of burning accelerator cycles on an answer nobody
  is waiting for anymore.

Requests are grouped *per network* because a batch must share weights: the
batcher can only fuse requests that run the same model.  The queue holds
row numbers of the engine's request stream
(:class:`~repro.serve.workload.Arrivals`) next to the values that order
and shed them, so it never reads a request record.  A ``fifo`` group is
a deque in arrival order, since stream offers arrive in that order; an
``edf`` group is a heap.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import check_choice, check_counts, check_real
from repro.serve.batcher import BatchPolicy

__all__ = ["QueuePolicy", "AdmissionQueue", "QUEUE_ORDERS"]

QUEUE_ORDERS = ("fifo", "edf")

#: shed reasons, also the keys of the metrics shed breakdown
SHED_QUEUE_FULL = "queue_full"
SHED_MAX_AGE = "max_age"
SHED_EXPIRED = "expired"


@dataclass(frozen=True)
class QueuePolicy:
    """Knobs governing admission, ordering and shedding."""

    max_depth: int = 256
    order: str = "fifo"
    max_age_s: Optional[float] = None
    shed_expired: bool = False

    def __post_init__(self) -> None:
        check_counts(self, "max_depth", minimum=1)
        check_choice(self.order, "queue order", QUEUE_ORDERS)
        # NaN compares false against every age, silently disabling shedding
        if self.max_age_s is not None:
            check_real(self.max_age_s, "max_age_s", gt=0)


class AdmissionQueue:
    """Per-network request queues under one :class:`QueuePolicy`.

    Under ``fifo`` each group is a deque of ``(arrival_s, rid, seq,
    deadline_s, row)`` entries in ascending order (``seq`` counts offers,
    so ties pop in offer order): an offer at or above the tail is
    appended in O(1), one below it (a failover retry re-offered with its
    original arrival) is inserted at its place, the head is the oldest
    arrival and a pop takes from the left.  Under ``edf`` each group is a
    heap of ``[deadline_s, arrival_s, rid, seq, row]`` entries, and a
    second heap orders the same entries by arrival; a pop sets the entry's
    row slot to ``None`` and the arrival heap discards such entries from
    its top.
    """

    def __init__(self, policy: QueuePolicy = QueuePolicy()) -> None:
        self.policy = policy
        self._edf = policy.order == "edf"
        #: where an entry holds its arrival and its deadline
        self._at, self._due = (1, 0) if self._edf else (0, 3)
        self._groups: Dict[str, Union[deque, List[list]]] = defaultdict(
            list if self._edf else deque
        )
        #: edf only: network -> heap of (arrival_s, rid, seq, group entry)
        self._arrivals: Dict[str, List[tuple]] = defaultdict(list)
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
        group = self._groups[network]
        oldest = self.oldest_arrival(network) if self._edf else group[0][0]
        return batch_policy.ready_time(oldest, len(group))

    def next_ready(self, batch_policy: BatchPolicy) -> Tuple[float, float, str]:
        """``(ready_time, oldest_arrival, network)`` of the group to dispatch next.

        The tuple is a total order, so the minimum does not depend on the
        order the groups are visited in.
        """
        edf, ready_time = self._edf, batch_policy.ready_time
        candidates = []
        for net, group in self._groups.items():
            if group:
                oldest = self.oldest_arrival(net) if edf else group[0][0]
                candidates.append((ready_time(oldest, len(group)), oldest, net))
        return min(candidates)

    # -- admission --------------------------------------------------------

    def offer(
        self, row: int, rid: int, network: str, arrival_s: float, deadline_s: float
    ) -> Optional[str]:
        """Admit stream row ``row`` (request ``rid``), or return why not."""
        if self._depth >= self.policy.max_depth:
            return SHED_QUEUE_FULL
        seq = self._seq
        self._seq += 1
        self._depth += 1
        group = self._groups[network]
        if self._edf:
            entry = [deadline_s, arrival_s, rid, seq, row]
            heapq.heappush(self._arrivals[network], (arrival_s, rid, seq, entry))
            heapq.heappush(group, entry)
            return None
        entry = (arrival_s, rid, seq, deadline_s, row)
        if group and entry < group[-1]:
            insort(group, entry)
        else:
            group.append(entry)
        return None

    # -- dispatch ---------------------------------------------------------

    def pop_batch(
        self, network: str, max_batch: int, now: float
    ) -> Tuple[List[int], List[Tuple[int, str]]]:
        """Take up to ``max_batch`` servable rows for ``network``, and the
        ``(row, reason)`` of each request shed on the way.

        Requests that aged out (or expired) while queued are shed rather
        than returned; shedding continues past them so a stale head of the
        queue cannot starve fresh requests behind it.
        """
        group = self._groups[network]
        edf = self._edf
        take = partial(heapq.heappop, group) if edf else group.popleft
        max_age, expired = self.policy.max_age_s, self.policy.shed_expired
        at, due = self._at, self._due
        batch: List[int] = []
        shed: List[Tuple[int, str]] = []
        while group and len(batch) < max_batch:
            entry = take()
            row = entry[-1]
            if edf:
                entry[-1] = None  # dead in the arrival heap
            if max_age is not None and now - entry[at] > max_age:
                shed.append((row, SHED_MAX_AGE))
            elif expired and now > entry[due]:
                shed.append((row, SHED_EXPIRED))
            else:
                batch.append(row)
        self._depth -= len(batch) + len(shed)
        arrivals = self._arrivals.get(network, [])
        if len(arrivals) > 2 * len(group):  # keep it within twice the depth
            arrivals[:] = [a for a in arrivals if a[3][-1] is not None]
            heapq.heapify(arrivals)
        return batch, shed
