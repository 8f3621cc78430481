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
batcher can only fuse requests that run the same model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.serve.batcher import BatchPolicy
from repro.serve.workload import Request

__all__ = ["QueuePolicy", "AdmissionQueue", "ShedEvent", "QUEUE_ORDERS"]

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
        if isinstance(self.max_depth, bool) or not isinstance(self.max_depth, int):
            raise ConfigError(
                f"max_depth must be an int, got {self.max_depth!r} "
                f"({type(self.max_depth).__name__})"
            )
        if self.max_depth <= 0:
            raise ConfigError(f"max_depth must be positive, got {self.max_depth!r}")
        if self.order not in QUEUE_ORDERS:
            raise ConfigError(
                f"unknown queue order {self.order!r}; choose from {QUEUE_ORDERS}"
            )
        # NaN compares false against every age, silently disabling shedding
        if self.max_age_s is not None and (
            isinstance(self.max_age_s, bool) or not 0 < self.max_age_s < math.inf
        ):
            raise ConfigError(
                f"max_age_s must be positive and finite, got {self.max_age_s!r}"
            )


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

    def next_ready(self, batch_policy: BatchPolicy) -> Tuple[float, float, str]:
        """``(ready_time, oldest_arrival, network)`` of the group to dispatch next."""
        candidates = []
        for net in self.networks():
            oldest = self.oldest_arrival(net)
            ready = batch_policy.ready_time(oldest, self.depth(net))
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
