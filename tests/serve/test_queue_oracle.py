"""Differential test: the production queue (FIFO deques, EDF heaps)
against the sort-and-scan oracle.

``SortScanQueue`` is the original list-backed ``AdmissionQueue``, kept
verbatim: every ``pop_batch`` re-sorts the whole group and rebuilds it, and
``oldest_arrival`` min-scans it.  It is slow but obviously right, so the
production queue must agree with it on every batch, shed event, head and
depth, whatever sequence of offers and pops drives them: random-order
offers into shallow queues, and mostly in-order offers into groups
hundreds deep.  The production queue holds stream rows where the oracle
holds requests; here request ``rid`` is row ``rid``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import BatchPolicy
from repro.serve.queue import (
    SHED_EXPIRED,
    SHED_MAX_AGE,
    SHED_QUEUE_FULL,
    AdmissionQueue,
    QueuePolicy,
)
from repro.serve.workload import Request
from tests.serve.reference import ShedEvent


class SortScanQueue:
    """Per-network request queues under one :class:`QueuePolicy`."""

    def __init__(self, policy: QueuePolicy = QueuePolicy()) -> None:
        self.policy = policy
        self._groups: Dict[str, List[Request]] = {}
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
        group = self._groups[network]
        return min(r.arrival_s for r in group)

    # -- admission --------------------------------------------------------

    def offer(self, request: Request, now: float) -> Optional[ShedEvent]:
        """Admit ``request`` or return the :class:`ShedEvent` rejecting it."""
        if self._depth >= self.policy.max_depth:
            return ShedEvent(request, SHED_QUEUE_FULL, now)
        self._groups.setdefault(request.network, []).append(request)
        self._depth += 1
        return None

    # -- dispatch ---------------------------------------------------------

    def _sort_key(self, request: Request) -> Tuple:
        if self.policy.order == "edf":
            return (request.deadline_s, request.arrival_s, request.rid)
        return (request.arrival_s, request.rid)

    def pop_batch(
        self, network: str, max_batch: int, now: float
    ) -> Tuple[List[Request], List[ShedEvent]]:
        """Take up to ``max_batch`` servable requests for ``network``.

        Requests that aged out (or expired) while queued are shed rather
        than returned; shedding continues past them so a stale head of the
        queue cannot starve fresh requests behind it.
        """
        group = self._groups.get(network, [])
        group.sort(key=self._sort_key)
        batch: List[Request] = []
        shed: List[ShedEvent] = []
        kept: List[Request] = []
        for request in group:
            if len(batch) >= max_batch:
                kept.append(request)
                continue
            age = now - request.arrival_s
            if self.policy.max_age_s is not None and age > self.policy.max_age_s:
                shed.append(ShedEvent(request, SHED_MAX_AGE, now))
            elif self.policy.shed_expired and now > request.deadline_s:
                shed.append(ShedEvent(request, SHED_EXPIRED, now))
            else:
                batch.append(request)
        self._groups[network] = kept
        self._depth -= len(batch) + len(shed)
        return batch, shed


def reference_next_ready(
    queue: SortScanQueue, batch_policy: BatchPolicy
) -> Tuple[float, float, str]:
    """The engines' original ready scan: build, sort, read ``[0]``."""
    out = []
    for net in queue.networks():
        oldest = queue.oldest_arrival(net)
        ready = batch_policy.ready_time(oldest, queue.depth(net))
        out.append((ready, oldest, net))
    out.sort()
    return out[0]


NETWORKS = ("alexnet", "googlenet", "nin")
#: a coarse time grid, so equal arrivals and deadlines are common
TIMES = st.integers(min_value=0, max_value=20).map(lambda k: k * 0.05)

policies = st.builds(
    QueuePolicy,
    max_depth=st.integers(min_value=1, max_value=12),
    order=st.sampled_from(("fifo", "edf")),
    max_age_s=st.sampled_from((None, 0.1, 0.3)),
    shed_expired=st.booleans(),
)
batch_policies = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=4),
    max_wait_ms=st.sampled_from((0.0, 10.0, 100.0)),
)
offer_op = st.tuples(
    st.just("offer"),
    st.sampled_from(NETWORKS),
    TIMES,
    st.sampled_from((0.05, 0.1, 0.25)),
    TIMES,
)
# re-offer the i-th popped request (modulo how many were popped), as a
# failover retry does, with its original arrival time
reoffer_op = st.tuples(st.just("reoffer"), st.integers(0, 50), TIMES)
pop_op = st.tuples(
    st.just("pop"), st.sampled_from(NETWORKS), st.integers(0, 5), TIMES
)
# max_batch = the queue's depth (the failover drain) or the group's
# (the adaptive engine's ``finish()`` drain)
drain_op = st.tuples(st.just("drain"), st.sampled_from(NETWORKS), st.booleans(), TIMES)
operations = st.lists(
    st.one_of(offer_op, offer_op, reoffer_op, pop_op, drain_op), max_size=60
)


def assert_same_state(new: AdmissionQueue, old: SortScanQueue, batch_policy) -> None:
    assert len(new) == len(old)
    assert new.depth() == old.depth()
    assert new.networks() == old.networks()
    for net in NETWORKS:
        assert new.depth(net) == old.depth(net)
    for net in old.networks():
        assert new.oldest_arrival(net) == old.oldest_arrival(net)
    if len(old):
        assert new.next_ready(batch_policy) == reference_next_ready(old, batch_policy)


def offer_both(new: AdmissionQueue, old: SortScanQueue, request: Request, now) -> None:
    want = old.offer(request, now)
    got = new.offer(
        request.rid, request.rid, request.network, request.arrival_s, request.deadline_s
    )
    assert got == (want.reason if want is not None else None)


def pop_both(new, old, requests, op) -> List[Request]:
    """Pop (or drain) one group from both queues; the popped requests."""
    kind, net, size, now = op
    if kind == "drain":  # size is a flag: the whole queue, or the group
        size = max(1, len(old) if size else old.depth(net))
    rows, shed = new.pop_batch(net, size, now)
    batch, events = old.pop_batch(net, size, now)
    assert [requests[row] for row in rows] == batch
    assert [(requests[row], reason) for row, reason in shed] == [
        (event.request, event.reason) for event in events
    ]
    return batch


def new_request(requests: List[Request], net: str, arrival: float, slo) -> Request:
    rid = len(requests)
    request = Request(rid, f"t{rid % 2}", net, arrival, arrival + slo)
    requests.append(request)
    return request


@settings(max_examples=300, deadline=None)
@given(policy=policies, batch_policy=batch_policies, ops=operations)
def test_heap_queue_matches_sort_and_scan(policy, batch_policy, ops):
    new, old = AdmissionQueue(policy), SortScanQueue(policy)
    requests: List[Request] = []  # by row
    popped: List[Request] = []
    for op in ops:
        kind = op[0]
        if kind == "offer":
            _, net, arrival, slo, now = op
            offer_both(new, old, new_request(requests, net, arrival, slo), now)
        elif kind == "reoffer":
            if popped:
                _, index, now = op
                offer_both(new, old, popped[index % len(popped)], now)
        else:
            popped.extend(pop_both(new, old, requests, op))
        assert_same_state(new, old, batch_policy)


# -- deep groups: past one 64-entry deque block ---------------------------

deep_policies = st.builds(
    QueuePolicy,
    max_depth=st.integers(min_value=60, max_value=300),
    order=st.sampled_from(("fifo", "edf")),
    max_age_s=st.sampled_from((None, 0.1, 0.4)),
    shed_expired=st.booleans(),
)
#: most traffic on one network, so its group runs deep
DEEP_NETWORKS = st.sampled_from(NETWORKS[:1] * 4 + NETWORKS[1:])
# ``count`` in-order arrivals ``step`` ms apart (0: all tied), from the
# clock on; the clock moves to the last of them, so the next burst ties it
burst_op = st.tuples(
    st.just("burst"),
    DEEP_NETWORKS,
    st.integers(1, 120),
    st.sampled_from((0, 1, 2)),
    st.sampled_from((0.05, 0.25)),
)
# re-offer ``count`` popped requests from the i-th (modulo how many were
# popped) on
deep_reoffer_op = st.tuples(
    st.just("reoffer"), st.integers(0, 500), st.integers(1, 8)
)
# pop at the clock plus ``wait`` seconds (the clock itself does not move)
deep_pop_op = st.tuples(
    st.just("pop"), DEEP_NETWORKS, st.integers(0, 32), st.sampled_from((0.0, 0.02, 0.2))
)
deep_drain_op = st.tuples(
    st.just("drain"), DEEP_NETWORKS, st.booleans(), st.sampled_from((0.0, 0.2))
)
deep_operations = st.lists(
    st.one_of(
        *[burst_op] * 3, *[deep_reoffer_op] * 2, *[deep_pop_op] * 2, deep_drain_op
    ),
    min_size=8,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(policy=deep_policies, batch_policy=batch_policies, ops=deep_operations)
def test_deep_groups_match_sort_and_scan(policy, batch_policy, ops):
    """Groups hundreds deep, offered mostly in arrival order with ties, and
    re-offers of popped requests landing below their group's tail."""
    new, old = AdmissionQueue(policy), SortScanQueue(policy)
    requests: List[Request] = []  # by row
    popped: List[Request] = []
    clock = 0.0
    for op in ops:
        kind = op[0]
        if kind == "burst":
            _, net, count, step, slo = op
            for i in range(count):
                arrival = clock + i * step * 1e-3
                offer_both(new, old, new_request(requests, net, arrival, slo), arrival)
            clock = arrival
        elif kind == "reoffer":
            _, index, count = op
            for request in popped[index % len(popped) :][:count] if popped else ():
                offer_both(new, old, request, clock)
        else:
            kind, net, size, wait = op
            op = (kind, net, size, clock + wait)
            popped.extend(pop_both(new, old, requests, op))
        assert_same_state(new, old, batch_policy)
