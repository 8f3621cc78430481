"""Differential test: the event-batched loop against the per-event loop.

``PerEventEngine`` is :class:`~repro.serve.engine.AdaptiveServingEngine`
with its original ``advance_to``, ``_pick`` and ``ingest``, which keep
the stream as sorted :class:`Request` objects and re-derive the next
event after every single arrival, over the reference queue and collector
(``reference.py``).  They are kept verbatim but for three edits: the
``busy_intervals`` append is gone (the batch log replaced it), for
``t_end=inf`` the trailing crash application is skipped — the bugfix
that leaves crashes armed past the last event for ``finish`` to judge
against the makespan — and the drain of a fleet with no replica left is
the engine's ``_fail_stranded`` hook.

The live loop offers arrivals in bulk between dispatches, carrying rows
of the columnar request stream.  On generated scenarios — up to a hundred
requests on a millisecond grid, crashes (often at arrival instants and
epoch boundaries), drains and adds, slow windows, batch-policy retunes
between epochs, epoch boundaries on arrival instants, FIFO and EDF, both
routings, ``max_wait_ms=0``, whole or per-epoch ingest — both engines
must agree on the summary JSON, the fleet events, every batch row and
every completion record.
"""

from __future__ import annotations

import json
import math
import random
from operator import attrgetter
from typing import List, Optional, Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.config import CONFIG_16_16
from repro.errors import ConfigError
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import (
    ROUTING_KINDS,
    AdaptiveReplica,
    AdaptiveServingEngine,
    _worst_factor,
)
from repro.serve.failover import FAILED_NO_REPLICAS
from repro.serve.queue import QueuePolicy
from repro.serve.workload import Request
from tests.serve.reference import AdmissionQueue, MetricsCollector

#: the arrival stream's order: by arrival instant, ties by request id
_ARRIVAL_ORDER = attrgetter("arrival_s", "rid")


class PerEventEngine(AdaptiveServingEngine):
    """The serving loop as it was: one event per arrival."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._queue = AdmissionQueue(self.queue_policy)
        self.metrics = MetricsCollector()
        self._pending: List[Request] = []

    def ingest(self, requests: Sequence[Request]) -> None:
        """Append arrivals to the stream (must not predate current time)."""
        fresh = sorted(requests, key=_ARRIVAL_ORDER)
        if fresh and fresh[0].arrival_s < self._now:
            raise ConfigError(
                f"cannot ingest an arrival at {fresh[0].arrival_s!r}s: the "
                f"loop has already advanced to {self._now!r}s"
            )
        if self._pi < len(self._pending) and fresh:
            tail = self._pending[-1].arrival_s
            if fresh[0].arrival_s < tail:
                raise ConfigError(
                    f"ingested arrivals start at {fresh[0].arrival_s!r}s, "
                    f"before the pending stream's tail at {tail!r}s"
                )
        self._pending.extend(fresh)

    def _fail_stranded(self) -> None:
        for net in list(self._queue.networks()):
            while self._queue.depth(net):
                batch, shed_events = self._queue.pop_batch(
                    net, max(1, self._queue.depth(net)), self._now
                )
                for event in shed_events:
                    self.metrics.record_shed(
                        event.request.tenant, event.reason
                    )
                for request in batch:
                    self.metrics.record_failure(
                        request.tenant, FAILED_NO_REPLICAS
                    )

    def _pick(self) -> Optional[AdaptiveReplica]:
        """The active replica the next dispatch would use (deterministic)."""
        active = self._active
        if not active:
            return None
        if self.routing == "round-robin":
            last = self._rr_last
            for state in active:
                if state.rid > last:
                    return state
            return active[0]
        return min(active, key=lambda r: (r.free_at, r.rid))

    def advance_to(self, t_end: float) -> None:
        """Run the event loop up to simulated time ``t_end`` and stop.

        Every arrival at or before ``t_end`` is ingested (admitted or
        shed), and every dispatch whose instant is at or before ``t_end``
        happens; nothing later does.  Idempotent for the same ``t_end``.
        """
        if t_end < self._now:
            raise ConfigError(
                f"cannot advance to {t_end!r}s: already at {self._now!r}s"
            )
        pending, queue, metrics = self._pending, self._queue, self.metrics
        batch_policy = self.batch_policy  # actions apply between calls
        n = len(pending)
        self._apply_faults(self._now)
        while True:
            next_times: List[float] = []
            if self._pi < n:
                next_times.append(pending[self._pi].arrival_s)
            if len(queue):
                pick = self._pick()
                if pick is not None:
                    ready = queue.next_ready(batch_policy)[0]
                    next_times.append(max(ready, pick.free_at))
            if not next_times:
                break
            t = max(self._now, min(next_times))
            # an armed crash before the next event changes who is eligible
            # to dispatch — fail-stop first, then recompute the event
            if self._faults and self._faults[0][0] <= min(t, t_end):
                self._now = max(self._now, self._faults[0][0])
                self._apply_faults(self._now)
                continue
            if t > t_end:
                break
            self._now = t

            while self._pi < n and pending[self._pi].arrival_s <= t:
                request = pending[self._pi]
                shed = queue.offer(request, request.arrival_s)
                if shed is not None:
                    metrics.record_shed(request.tenant, shed.reason)
                self._pi += 1

            while len(queue):
                replica = self._pick()
                if replica is None or replica.free_at > t:
                    break
                ready, _, network = queue.next_ready(batch_policy)
                if ready > t:
                    break
                batch, shed_events = queue.pop_batch(
                    network, batch_policy.max_batch, t
                )
                for event in shed_events:
                    metrics.record_shed(event.request.tenant, event.reason)
                if not batch:
                    continue
                coster = self._replica_costers.get(replica.rid, self.coster)
                service = coster.batch_seconds(network, len(batch))
                if replica.slow_windows:
                    service *= _worst_factor(replica.slow_windows, t)
                finish = t + service
                replica.free_at = finish
                replica.busy_s += service
                replica.batches += 1
                replica.completed += len(batch)
                self._rr_last = replica.rid
                metrics.record_served(batch, t, finish, replica.rid)
        if not math.isinf(t_end):
            self._apply_faults(t_end)
        if t_end > self._now and not math.isinf(t_end):
            self._now = t_end


# -- the differential test ----------------------------------------------------

NETWORKS = ("alexnet", "nin", "googlenet")
#: shared: each (network, batch) plan derives once per test run
COSTER = BatchCoster(CONFIG_16_16)

#: instants on a coarse millisecond grid, so arrivals, crashes, window
#: edges and epoch boundaries often coincide
TIMES = st.integers(min_value=0, max_value=300).map(lambda ms: ms / 1e3)
#: (network index, tenant, SLO) of a request
KINDS = [
    (net, tenant, slo)
    for net in range(len(NETWORKS))
    for tenant in ("acme", "beta")
    for slo in (0.02, 0.1, 1.0)
]


def _specs(count: int, seed: int) -> List[tuple]:
    """``count`` (arrival, network index, tenant, SLO) specs, arrivals on
    the millisecond grid."""
    draw = random.Random(seed).random
    return [
        (int(draw() * 301) / 1e3,) + KINDS[int(draw() * len(KINDS))]
        for _ in range(count)
    ]


#: drawn as a (count, seed) pair: two choices per workload keep examples
#: cheap to generate, so they carry real traffic (~50 requests on average;
#: more would lengthen the test, whose reference loop is per event)
request_specs = st.tuples(st.integers(0, 100), st.integers(0, 2**16)).map(
    lambda spec: _specs(*spec)
)
queue_policies = st.builds(
    QueuePolicy,
    max_depth=st.sampled_from((3, 8, 1024)),
    order=st.sampled_from(("fifo", "edf")),
    max_age_s=st.sampled_from((None, 0.05)),
    shed_expired=st.booleans(),
)
batch_policies = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=6),
    max_wait_ms=st.sampled_from((0.0, 5.0, 50.0)),
)
#: between-epoch actions: (kind, replica pick, new batch policy)
actions = st.tuples(
    st.sampled_from(("none", "add", "drain", "retune")),
    st.integers(0, 7),
    batch_policies,
)
#: (from, span, factor) of a slow window
windows = st.tuples(
    TIMES, st.integers(1, 200).map(lambda ms: ms / 1e3), st.sampled_from((1.5, 3.0))
)


@settings(max_examples=150, deadline=None)
@given(
    specs=request_specs,
    queue_policy=queue_policies,
    batch_policy=batch_policies,
    routing=st.sampled_from(ROUTING_KINDS),
    replicas=st.integers(min_value=1, max_value=4),
    crashes=st.lists(st.tuples(st.integers(0, 3), TIMES), max_size=3),
    slows=st.lists(st.tuples(st.integers(0, 3), windows), max_size=2),
    epochs=st.lists(st.tuples(TIMES, actions), max_size=5),
    chunked=st.booleans(),
)
# shrunk from a deep run: the round-robin pick crashes with work queued, so
# arrivals past the crash instant must wait for the re-picked dispatch (a x3
# slow window on every replica keeps the queue deep)
@example(
    specs=[
        (0.0, 0, "acme", 0.02),
        (0.0, 0, "acme", 0.02),
        (0.024, 0, "acme", 1.0),
        (0.026, 1, "beta", 1.0),
        (0.032, 2, "beta", 0.02),
        (0.027, 2, "beta", 0.1),
        (0.034, 1, "beta", 1.0),
        (0.087, 1, "acme", 0.02),
        (0.034, 1, "beta", 0.02),
        (0.08, 2, "beta", 1.0),
    ],
    queue_policy=QueuePolicy(max_depth=1024, order="edf", max_age_s=0.05),
    batch_policy=BatchPolicy(max_batch=1, max_wait_ms=50.0),
    routing="round-robin",
    replicas=3,
    crashes=[(2, 0.078)],
    slows=[(rid, (0.003, 0.038, 3.0)) for rid in range(3)],
    epochs=[],
    chunked=False,
)
def test_bulk_ingest_matches_per_event_loop(
    specs, queue_policy, batch_policy, routing, replicas, crashes, slows, epochs,
    chunked,
):
    requests = [
        Request(
            rid=rid,
            tenant=tenant,
            network=NETWORKS[net],
            arrival_s=arrival,
            deadline_s=arrival + slo,
        )
        for rid, (arrival, net, tenant, slo) in enumerate(specs)
    ]
    engines = [
        cls(
            CONFIG_16_16,
            batch_policy=batch_policy,
            queue_policy=queue_policy,
            replicas=replicas,
            routing=routing,
            coster=COSTER,
        )
        for cls in (PerEventEngine, AdaptiveServingEngine)
    ]
    for engine in engines:
        armed = set()
        for rid, at_s in crashes:
            if rid < replicas and rid not in armed:
                armed.add(rid)
                engine.schedule_crash(rid, at_s)
        for rid, (from_s, span_s, factor) in slows:
            if rid < replicas:
                engine.set_slow(rid, factor, from_s, from_s + span_s)
        if not chunked:
            engine.ingest(requests)

    boundaries = sorted(epochs, key=lambda e: e[0])
    prev = -1.0
    for boundary, (kind, which, policy) in boundaries:
        for engine in engines:
            if chunked:
                engine.ingest(
                    [r for r in requests if prev < r.arrival_s <= boundary]
                )
            engine.advance_to(boundary)
            active = [r.rid for r in engine.active_replicas()]
            if kind == "add":
                engine.add_replica()
            elif kind == "drain" and len(active) > 1:
                engine.drain_replica(active[which % len(active)])
            elif kind == "retune":
                engine.set_batch_policy(policy)
        prev = boundary
    if chunked:
        for engine in engines:
            engine.ingest([r for r in requests if r.arrival_s > prev])
    want, got = (engine.finish(0.3, {"seed": 0}) for engine in engines)

    # the canonical JSON without its indentation, which only the slower
    # pure-Python encoder writes: equal either way
    assert json.dumps(got.summary, sort_keys=True) == json.dumps(
        want.summary, sort_keys=True
    )
    assert engines[1].fleet_events == engines[0].fleet_events
    rows = [
        (log.batch_replicas, log.batch_starts, log.batch_finishes, log.batch_sizes)
        for log in (want.metrics, got.metrics)
    ]
    assert rows[1] == rows[0]
    assert got.metrics.completed == want.metrics.completed
