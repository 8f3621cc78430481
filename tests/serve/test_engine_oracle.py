"""Differential test: the serving loop's fixed-fleet view against the static loop.

``StaticLoopEngine`` and ``_Router`` are the original fixed-fleet
``ServingEngine`` event loop and its router, kept verbatim.  The loop
handles only a fixed fleet, with no crashes, drains or slow windows, so it
is easy to check by eye; it queues and logs :class:`Request` objects
through the reference queue and collector (``reference.py``).
:class:`~repro.serve.engine.ServingEngine`, a one-shot run of
:class:`~repro.serve.engine.AdaptiveServingEngine`, must
agree with it on the canonical summary JSON and on every completion
record, whatever the routing, queue policy, fleet, costers, chip tags and
traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import CONFIG_16_16, CONFIG_32_32, AcceleratorConfig
from repro.errors import ConfigError
from repro.perf.instrument import phase
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import (
    ROUTING_KINDS,
    ReplicaState,
    ServingEngine,
    ServingReport,
    _apply_chip_tags,
    per_chip_rollup,
)
from repro.serve.metrics import to_json
from repro.serve.queue import QueuePolicy
from repro.serve.workload import Request
from tests.serve.reference import AdmissionQueue, MetricsCollector


class _Router:
    """Picks the replica the next batch will run on."""

    def __init__(self, replicas: List[ReplicaState], kind: str) -> None:
        if kind not in ROUTING_KINDS:
            raise ConfigError(
                f"unknown routing {kind!r}; choose from {ROUTING_KINDS}"
            )
        # normalize to rid order so routing never depends on how the
        # caller happened to build the list
        self.replicas = sorted(replicas, key=lambda r: r.rid)
        self.kind = kind
        self._next = 0

    def peek(self) -> ReplicaState:
        """The replica the next dispatch would use (no state change).

        Least-loaded ties (equal ``free_at``) always resolve to the lowest
        replica index — two equally-loaded replicas must route the same
        way on every run.
        """
        if self.kind == "round-robin":
            return self.replicas[self._next]
        return min(self.replicas, key=lambda r: (r.free_at, r.rid))

    def commit(self) -> None:
        """Advance the turn after a dispatch actually happened."""
        if self.kind == "round-robin":
            self._next = (self._next + 1) % len(self.replicas)


class StaticLoopEngine:
    """Discrete-event simulator of a multi-tenant serving tier."""

    def __init__(
        self,
        config: AcceleratorConfig,
        batch_policy: BatchPolicy = BatchPolicy(),
        queue_policy: QueuePolicy = QueuePolicy(),
        replicas: int = 1,
        routing: str = "round-robin",
        plan_policy: str = "adaptive-2",
        coster: Optional[BatchCoster] = None,
        replica_costers: Optional[Sequence[BatchCoster]] = None,
        chip_map: Optional[Dict[int, str]] = None,
        chip_shares: Optional[Dict[int, float]] = None,
    ) -> None:
        if isinstance(replicas, bool) or not isinstance(replicas, int):
            raise ConfigError(
                f"replicas must be an int, got {replicas!r} "
                f"({type(replicas).__name__})"
            )
        if replicas <= 0:
            raise ConfigError(f"replicas must be positive, got {replicas!r}")
        if routing not in ROUTING_KINDS:
            raise ConfigError(
                f"unknown routing {routing!r}; choose from {ROUTING_KINDS}"
            )
        if replica_costers is not None and len(replica_costers) != replicas:
            raise ConfigError(
                f"replica_costers has {len(replica_costers)} entries for "
                f"{replicas} replicas; one coster per replica (rid order)"
            )
        self.config = config
        self.batch_policy = batch_policy
        self.queue_policy = queue_policy
        self.n_replicas = replicas
        self.routing = routing
        self.plan_policy = plan_policy
        self.coster = coster or BatchCoster(config, policy=plan_policy)
        #: heterogeneous fleets: per-rid coster overrides (mixed chip
        #: classes, partitions); rid order, None entries fall back
        self.replica_costers = (
            list(replica_costers) if replica_costers is not None else None
        )
        self.chip_map = dict(chip_map) if chip_map else None
        self.chip_shares = dict(chip_shares) if chip_shares else None

    # -- the event loop ---------------------------------------------------

    def run(
        self,
        requests: Sequence[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]] = None,
    ) -> ServingReport:
        """Simulate serving ``requests`` and reduce the result to a report.

        ``duration_s`` is the offered-load window (rate denominators);
        the loop itself runs past it until the queue fully drains.
        """
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive, got {duration_s!r}")
        with phase("serve_run"):
            return self._run(list(requests), duration_s, extra_meta)

    def _run(
        self,
        requests: List[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]],
    ) -> ServingReport:
        requests.sort(key=lambda r: (r.arrival_s, r.rid))
        queue = AdmissionQueue(self.queue_policy)
        metrics = MetricsCollector()
        replicas = [ReplicaState(rid) for rid in range(self.n_replicas)]
        _apply_chip_tags(replicas, self.chip_map, self.chip_shares)
        router = _Router(replicas, self.routing)

        t = 0.0
        i = 0
        n = len(requests)
        while i < n or len(queue):
            # -- advance to the next event ------------------------------
            next_times: List[float] = []
            if i < n:
                next_times.append(requests[i].arrival_s)
            if len(queue):
                ready = queue.next_ready(self.batch_policy)[0]
                next_times.append(max(ready, router.peek().free_at))
            t = max(t, min(next_times))

            # -- ingest every arrival at or before t --------------------
            while i < n and requests[i].arrival_s <= t:
                request = requests[i]
                shed = queue.offer(request, request.arrival_s)
                if shed is not None:
                    metrics.record_shed(request.tenant, shed.reason)
                i += 1

            # -- dispatch everything dispatchable at t ------------------
            while len(queue):
                replica = router.peek()
                if replica.free_at > t:
                    break
                ready, _, network = queue.next_ready(self.batch_policy)
                if ready > t:
                    break
                batch, shed_events = queue.pop_batch(
                    network, self.batch_policy.max_batch, t
                )
                for event in shed_events:
                    metrics.record_shed(event.request.tenant, event.reason)
                if not batch:
                    continue
                coster = self.coster
                if self.replica_costers is not None:
                    override = self.replica_costers[replica.rid]
                    if override is not None:
                        coster = override
                service = coster.batch_seconds(network, len(batch))
                finish = t + service
                replica.free_at = finish
                replica.busy_s += service
                replica.batches += 1
                replica.completed += len(batch)
                router.commit()
                metrics.record_served(batch, t, finish, replica.rid)

        busy_s = sum(r.busy_s for r in replicas)
        summary = metrics.summary(duration_s, self.n_replicas, busy_s)
        summary["per_replica"] = [
            r.detail(summary["makespan_s"]) for r in replicas
        ]
        if any(r.chip is not None for r in replicas):
            makespan = summary["makespan_s"]
            spans = {
                r.chip: makespan for r in replicas if r.chip is not None
            }
            summary["per_chip"] = per_chip_rollup(replicas, spans)
        summary["engine"] = {
            "config": self.config.name,
            "plan_policy": self.plan_policy,
            "batching": self.batch_policy.describe(),
            "max_batch": self.batch_policy.max_batch,
            "max_wait_ms": self.batch_policy.max_wait_ms,
            "queue_depth": self.queue_policy.max_depth,
            "queue_order": self.queue_policy.order,
            "routing": self.routing,
        }
        if extra_meta:
            summary["workload"] = dict(sorted(extra_meta.items()))
        return ServingReport(summary=summary, metrics=metrics, replicas=replicas)


# -- the differential test ----------------------------------------------------

NETWORKS = ("alexnet", "nin", "googlenet")
#: shared costers: each (network, batch) plan derives once per session
COSTERS = (BatchCoster(CONFIG_16_16), BatchCoster(CONFIG_32_32))

#: arrival instants on a coarse grid, so ties between requests are common
TIMES = st.integers(min_value=0, max_value=400).map(lambda ms: ms / 1e3)
request_specs = st.lists(
    st.tuples(
        TIMES,
        st.integers(0, len(NETWORKS) - 1),
        st.sampled_from(("acme", "beta")),
        st.sampled_from((0.02, 0.1, 1.0)),
    ),
    max_size=60,
)
queue_policies = st.builds(
    QueuePolicy,
    max_depth=st.sampled_from((3, 8, 1024)),
    order=st.sampled_from(("fifo", "edf")),
    shed_expired=st.booleans(),
)
batch_policies = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=6),
    max_wait_ms=st.sampled_from((0.0, 5.0, 50.0)),
)


@st.composite
def fleets(draw):
    """Replica count, per-replica costers, and optional chip tags."""
    n = draw(st.integers(min_value=1, max_value=4))
    costers = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from((None,) + COSTERS), min_size=n, max_size=n
            ),
        )
    )
    chips = draw(
        st.dictionaries(
            st.integers(0, n - 1), st.sampled_from(("c0", "c1")), max_size=n
        )
    )
    shares = draw(
        st.dictionaries(
            st.sampled_from(sorted(chips) or [0]),
            st.sampled_from((0.25, 0.5, 1.0)),
            max_size=n,
        )
        if chips
        else st.just({})
    )
    return n, costers, chips or None, shares or None


@settings(max_examples=120, deadline=None)
@given(
    specs=request_specs,
    n_networks=st.integers(min_value=1, max_value=len(NETWORKS)),
    queue_policy=queue_policies,
    batch_policy=batch_policies,
    routing=st.sampled_from(ROUTING_KINDS),
    fleet=fleets(),
    duration_s=st.sampled_from((0.2, 0.5, 2.0)),
)
def test_view_matches_static_loop(
    specs, n_networks, queue_policy, batch_policy, routing, fleet, duration_s
):
    requests = [
        Request(
            rid=rid,
            tenant=tenant,
            network=NETWORKS[net % n_networks],
            arrival_s=arrival,
            deadline_s=arrival + slo,
        )
        for rid, (arrival, net, tenant, slo) in enumerate(specs)
    ]
    n, costers, chip_map, chip_shares = fleet
    kwargs = dict(
        batch_policy=batch_policy,
        queue_policy=queue_policy,
        replicas=n,
        routing=routing,
        coster=COSTERS[0],
        replica_costers=costers,
        chip_map=chip_map,
        chip_shares=chip_shares,
    )
    meta = {"seed": 0}
    want = StaticLoopEngine(CONFIG_16_16, **kwargs).run(requests, duration_s, meta)
    got = ServingEngine(CONFIG_16_16, **kwargs).run(requests, duration_s, meta)
    assert to_json(got.summary) == to_json(want.summary)
    assert got.metrics.completed == want.metrics.completed
    assert got.metrics.batch_sizes == want.metrics.batch_sizes
