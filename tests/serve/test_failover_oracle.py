"""Differential test: failover runs of the serving loop against the old failover loop.

``FailoverLoopEngine`` (with ``HealthChecker``, ``FaultyReplica`` and
``_BatchJob``) is the failover tier's own event loop, kept verbatim from
``repro.serve.failover`` as it stood when lossy crashes, detection lag,
retries, hedging, service windows and SDC windows moved into
:meth:`~repro.serve.engine.AdaptiveServingEngine.advance_to`, but for
three edits: the class is renamed, it already carries the fix that keeps
a hedged batch alive while one of its copies still runs on a live
replica, and it arms slow windows before its loop, as the engine does,
so only crashes are fault events and a run with no live replica settles
its stranded requests at the engine's instant.  It queues and logs
:class:`Request` objects through the reference queue and collector
(``reference.py``).

On generated runs — both routings, one to four replicas, FIFO and EDF
queues with depth limits, crashes anywhere, on probe ticks, as a batch
completes and halfway through one (so dispatches land in the detection
window), overlapping slow windows and service windows, SDC windows with
verification on, off and absent, hedging, retry budgets of zero to two,
and runs no replica survives — :class:`~repro.serve.engine.ServingEngine`
given the same fault inputs must agree with it on the canonical summary
JSON, every batch row and every completion record.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.config import CONFIG_16_16, AcceleratorConfig
from repro.errors import ConfigError, check_choice, check_count, check_real
from repro.perf.instrument import phase
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.engine import (
    ROUTING_KINDS,
    AdaptiveServingEngine,
    ServingEngine,
    ServingReport,
    _worst_factor,
    engine_summary,
)
from repro.serve.failover import (
    DETECT_INTERVAL_S,
    FAILED_NO_REPLICAS,
    FAILED_RETRIES,
    MAX_RETRIES,
    SLOW_THRESHOLD,
    FailoverPolicy,
    ReplicaFault,
    backoff_s,
)
from repro.serve import engine as engine_module
from repro.serve.queue import QueuePolicy
from repro.serve.verified import (
    DETECTION_RATE,
    DRAIN_THRESHOLD,
    LATENCY_OVERHEAD,
    RECOMPUTE_OVERHEAD,
    SDCFault,
    VerificationPolicy,
    VerifiedReplica,
)
from repro.serve.workload import Request
from tests.serve.reference import AdmissionQueue, MetricsCollector


class HealthChecker:
    """Tracks each replica's believed status and the transition timeline.

    The checker sees only what a real one could: completion latencies
    (compared against the planner's expected service time) and probe
    timeouts.  A crash at ``t`` is *believed* only at the first probe tick
    strictly after ``t`` — the window in between is exactly where doomed
    dispatches happen.
    """

    def __init__(self, n_replicas: int) -> None:
        self._status: Dict[int, str] = {rid: "up" for rid in range(n_replicas)}
        #: replicas slow-marked sticky (SDC drain): completions can't revive
        self._quarantined: Set[int] = set()
        #: (time_s, rid, new status) transitions, in occurrence order
        self.timeline: List[Tuple[float, int, str]] = []

    def status(self, rid: int) -> str:
        return self._status[rid]

    def is_slow(self, rid: int) -> bool:
        return self._status[rid] == "slow"

    def alive_rids(self) -> List[int]:
        """Replicas not believed down, in rid order."""
        return sorted(r for r, s in self._status.items() if s != "down")

    def detection_time(self, crash_s: float) -> float:
        """First probe tick strictly after the crash instant."""
        k = math.floor(crash_s / DETECT_INTERVAL_S) + 1
        return k * DETECT_INTERVAL_S

    def _transition(self, t: float, rid: int, status: str) -> None:
        if self._status[rid] != status:
            self._status[rid] = status
            self.timeline.append((t, rid, status))

    def mark_down(self, t: float, rid: int) -> None:
        self._transition(t, rid, "down")

    def mark_slow(self, t: float, rid: int, sticky: bool = False) -> None:
        """Force a slow mark; ``sticky`` quarantines the replica.

        A quarantined replica stays ``slow`` no matter how fast its later
        completions look — the drain path for repeated SDC detections,
        where the replica's *timing* is fine but its silicon is not to be
        trusted.
        """
        if self._status[rid] == "down":
            return
        if sticky:
            self._quarantined.add(rid)
        self._transition(t, rid, "slow")

    def observe_completion(
        self, t: float, rid: int, observed_s: float, expected_s: float
    ) -> None:
        """Classify a replica from one completed batch's service time."""
        if self._status[rid] == "down" or rid in self._quarantined:
            return
        if expected_s > 0 and observed_s >= SLOW_THRESHOLD * expected_s:
            self._transition(t, rid, "slow")
        else:
            self._transition(t, rid, "up")

    def timeline_dicts(self) -> List[Dict[str, object]]:
        return [
            {"time_ms": round(t * 1e3, 6), "replica": rid, "status": status}
            for t, rid, status in self.timeline
        ]


@dataclass
class FaultyReplica:
    """One replica's occupancy plus its fault bookkeeping."""

    rid: int
    free_at: float = 0.0
    busy_s: float = 0.0
    batches: int = 0
    completed: int = 0
    crashed_at: Optional[float] = None
    detected: bool = False
    #: fail-slow ``(from_s, until_s, factor)`` windows, as on
    #: :class:`~repro.serve.engine.AdaptiveReplica`
    slow_windows: List[Tuple[float, float, float]] = field(default_factory=list)
    inflight: Optional["_BatchJob"] = None

    def crashed_by(self, t: float) -> bool:
        return self.crashed_at is not None and self.crashed_at <= t

    def service_multiplier(self, t: float) -> float:
        """The worst fail-slow factor in force at dispatch time ``t``."""
        return _worst_factor(self.slow_windows, t)

    def detail(self, makespan_s: float, status: str) -> Dict[str, object]:
        return {
            "rid": self.rid,
            "busy_ms": round(self.busy_s * 1e3, 6),
            "batches": self.batches,
            "completed": self.completed,
            "utilization": round(self.busy_s / makespan_s, 6)
            if makespan_s
            else 0.0,
            "status": status,
            "crashed_ms": round(self.crashed_at * 1e3, 6)
            if self.crashed_at is not None
            else None,
        }


@dataclass
class _BatchJob:
    """One dispatched batch, possibly running on two replicas (hedge)."""

    requests: List[Request]
    network: str
    dispatched_at: float
    expected_s: float
    done: bool = field(default=False)
    #: lost to crashes with no copy left running: the batch retries
    lost: bool = False
    #: runs of crashed copies whose crash was noticed while another copy
    #: still ran: wasted once that copy completes the batch
    crashed_run_s: float = 0.0
    #: silently corrupted by the SDC window of replica ``sdc_rid``; the
    #: corruption only materializes if that replica's run wins
    corrupted: bool = False
    #: the ABFT check will flag the corruption on completion
    sdc_detected: bool = False
    sdc_rid: int = -1


class FailoverLoopEngine:
    """Discrete-event serving simulator with replica fault injection.

    The interface is :class:`~repro.serve.engine.ServingEngine`'s; the
    extra inputs are ``faults`` (the replica fault schedule) and
    ``failover_policy``.  ``service_windows`` applies a global service-time
    multiplier over ``[start, end)`` windows — the hook the chaos runner
    uses to model a degraded/flapping shared interconnect under a sharded
    deployment.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        batch_policy: BatchPolicy = BatchPolicy(),
        queue_policy: QueuePolicy = QueuePolicy(),
        replicas: int = 1,
        routing: str = "round-robin",
        plan_policy: str = "adaptive-2",
        coster: Optional[BatchCoster] = None,
        faults: Sequence[ReplicaFault] = (),
        failover_policy: FailoverPolicy = FailoverPolicy(),
        service_windows: Sequence[Tuple[float, float, float]] = (),
        sdc_faults: Sequence[SDCFault] = (),
        verification: Optional[VerificationPolicy] = None,
    ) -> None:
        check_count(replicas, "replicas", 1)
        check_choice(routing, "routing", ROUTING_KINDS)
        for fault in faults:
            if fault.replica >= replicas:
                raise ConfigError(
                    f"fault targets replica {fault.replica} but the tier "
                    f"has only {replicas} replicas"
                )
        for sdc in sdc_faults:
            if sdc.replica >= replicas:
                raise ConfigError(
                    f"SDC fault targets replica {sdc.replica} but the tier "
                    f"has only {replicas} replicas"
                )
        for start, end, mult in service_windows:
            if not end > start:
                raise ConfigError(
                    f"service window must have end > start, got "
                    f"[{start!r}, {end!r})"
                )
            if not math.isfinite(mult) or mult < 1:
                raise ConfigError(
                    f"service multiplier must be finite and >= 1, got {mult!r}"
                )
        self.config = config
        self.batch_policy = batch_policy
        self.queue_policy = queue_policy
        self.n_replicas = replicas
        self.routing = routing
        self.plan_policy = plan_policy
        self.coster = coster or BatchCoster(config, policy=plan_policy)
        self.faults = tuple(sorted(faults, key=lambda f: (f.time_s, f.replica)))
        self.failover_policy = failover_policy
        self.service_windows = tuple(
            sorted((float(s), float(e), float(m)) for s, e, m in service_windows)
        )
        self.sdc_faults = tuple(
            sorted(sdc_faults, key=lambda f: (f.time_s, f.replica))
        )
        self.verification = verification

    # -- helpers -----------------------------------------------------------

    def _pick_replica(
        self, states: List[FaultyReplica], health: HealthChecker, rr_last: int
    ) -> Optional[FaultyReplica]:
        """The replica the next dispatch would use, or ``None`` if all down.

        Round-robin cycles over the replicas not believed down, resuming
        after the last dispatched rid.  Least-loaded picks the earliest
        free believed-alive replica, deprioritizing slow-marked ones and
        breaking ties on rid — deterministic by construction.
        """
        alive = [states[r] for r in health.alive_rids()]
        if not alive:
            return None
        if self.routing == "round-robin":
            for s in alive:
                if s.rid > rr_last:
                    return s
            return alive[0]
        return min(alive, key=lambda s: (s.free_at, health.is_slow(s.rid), s.rid))

    # -- the event loop ----------------------------------------------------

    def run(
        self,
        requests: Sequence[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]] = None,
    ) -> ServingReport:
        """Simulate serving ``requests`` under the injected fault schedule.

        Every offered request terminates exactly once: completed, shed
        (queue policy), or failed with a reason (retry budget exhausted,
        or no replicas left alive).
        """
        check_real(duration_s, "duration", gt=0)
        with phase("serve_failover_run"):
            return self._run(list(requests), duration_s, extra_meta)

    def _run(
        self,
        requests: List[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]],
    ) -> ServingReport:
        policy = self.failover_policy
        requests.sort(key=lambda r: (r.arrival_s, r.rid))
        queue = AdmissionQueue(self.queue_policy)
        metrics = MetricsCollector()
        health = HealthChecker(self.n_replicas)
        states = [FaultyReplica(rid) for rid in range(self.n_replicas)]
        attempts: Dict[int, int] = {}
        #: (available_at, request) retries waiting out their backoff
        retry_pool: List[Tuple[float, Request]] = []
        retries_scheduled = 0
        hedges = 0
        hedge_wasted_s = 0.0
        rr_last = -1
        ver = self.verification
        checking = ver is not None and ver.enabled
        vreps = [VerifiedReplica(rid) for rid in range(self.n_replicas)]
        # one seeded stream per SDC window, consumed in dispatch order —
        # corruption and detection rolls are deterministic by construction
        sdc_rngs = [
            random.Random(fault.seed + 7919 * idx)
            for idx, fault in enumerate(self.sdc_faults)
        ]

        def fail(request: Request, reason: str) -> None:
            metrics.record_failure(request.tenant, reason)

        def lose_job(job: _BatchJob, crashed: FaultyReplica, t: float) -> None:
            """Drain a lost batch to retries / failures (crash recovery)."""
            nonlocal retries_scheduled, hedge_wasted_s
            if job.lost:
                return
            # the crashed copy's run until its crash is wasted if another
            # copy completes the batch, before or after this probe
            run_s = crashed.crashed_at - job.dispatched_at
            if job.done:
                hedge_wasted_s += run_s
                return
            if any(
                s is not crashed and s.inflight is job and not s.crashed_by(t)
                for s in states
            ):
                job.crashed_run_s += run_s  # charged when that copy completes
                return
            job.done = job.lost = True
            for request in job.requests:
                attempt = attempts.get(request.rid, 0) + 1
                attempts[request.rid] = attempt
                if attempt > MAX_RETRIES:
                    fail(request, FAILED_RETRIES)
                else:
                    retries_scheduled += 1
                    retry_pool.append((t + backoff_s(attempt), request))
            retry_pool.sort(key=lambda e: (e[0], e[1].rid))

        # slow windows are armed up front, as the engine does: only crashes
        # stay fault events, so the drain below runs at the engine's instant
        for fault in self.faults:
            if fault.kind == "slow":
                states[fault.replica].slow_windows.append(
                    (fault.time_s, fault.time_s + fault.duration_s, fault.factor)
                )
        crashes = [f for f in self.faults if f.kind == "crash"]
        fault_idx = 0
        i = 0
        n = len(requests)
        t = 0.0
        while True:
            # -- next event time ----------------------------------------
            next_times: List[float] = []
            if i < n:
                next_times.append(requests[i].arrival_s)
            if fault_idx < len(crashes):
                next_times.append(crashes[fault_idx].time_s)
            if retry_pool:
                next_times.append(retry_pool[0][0])
            for s in states:
                if s.inflight is not None and not s.crashed_by(s.free_at):
                    next_times.append(s.free_at)  # a live completion
                if s.crashed_at is not None and not s.detected:
                    next_times.append(health.detection_time(s.crashed_at))
            if len(queue):
                pick = self._pick_replica(states, health, rr_last)
                if pick is not None:
                    ready = queue.next_ready(self.batch_policy)[0]
                    dispatch_at = max(ready, pick.free_at)
                    if not math.isinf(dispatch_at):
                        next_times.append(dispatch_at)
            next_times = [x for x in next_times if not math.isinf(x)]
            if not next_times:
                break
            t = max(t, min(next_times))

            # -- 1. faults scheduled at or before t ---------------------
            while fault_idx < len(crashes) and crashes[fault_idx].time_s <= t:
                fault = crashes[fault_idx]
                fault_idx += 1
                s = states[fault.replica]
                if fault.kind == "crash":
                    if s.crashed_at is None:
                        s.crashed_at = fault.time_s
                        if s.inflight is not None:
                            # it will never report the completion: appears
                            # busy until the probe loop notices the crash,
                            # and is charged only the service it ran
                            s.busy_s -= s.free_at - fault.time_s
                            s.free_at = math.inf

            # -- 2. completions on live replicas ------------------------
            for s in states:
                if s.inflight is None or s.free_at > t:
                    continue
                if s.crashed_by(s.free_at):
                    continue  # died mid-batch; recovered at detection
                job = s.inflight
                s.inflight = None
                service = s.free_at - job.dispatched_at
                if job.done:
                    # the hedge twin finished first; this run was wasted
                    hedge_wasted_s += service
                    continue
                job.done = True
                hedge_wasted_s += job.crashed_run_s
                s.completed += len(job.requests)
                health.observe_completion(s.free_at, s.rid, service, job.expected_s)
                vrep = vreps[s.rid]
                if checking:
                    vrep.checked_batches += 1
                if job.corrupted and job.sdc_rid == s.rid:
                    # the corrupting replica's run won; the check (if any)
                    # already shaped this batch's service time at dispatch
                    vrep.corrupted_batches += 1
                    if job.sdc_detected:
                        vrep.detected += 1
                        vrep.corrected += 1
                        if (
                            ver is not None
                            and vrep.detected >= DRAIN_THRESHOLD
                            and not vrep.drained
                        ):
                            vrep.drained_at = s.free_at
                            health.mark_slow(s.free_at, s.rid, sticky=True)
                    else:
                        vrep.escaped_batches += 1
                        vrep.escaped_requests += len(job.requests)
                metrics.record_served(job.requests, job.dispatched_at, s.free_at, s.rid)

            # -- 3. crash detections ------------------------------------
            for s in states:
                if (
                    s.crashed_at is not None
                    and not s.detected
                    and health.detection_time(s.crashed_at) <= t
                ):
                    s.detected = True
                    detect_t = health.detection_time(s.crashed_at)
                    health.mark_down(detect_t, s.rid)
                    if s.inflight is not None:
                        lose_job(s.inflight, s, detect_t)
                        s.inflight = None
                    s.free_at = math.inf

            # -- 4. arrivals at or before t -----------------------------
            while i < n and requests[i].arrival_s <= t:
                request = requests[i]
                shed = queue.offer(request, request.arrival_s)
                if shed is not None:
                    metrics.record_shed(request.tenant, shed.reason)
                i += 1

            # -- 5. retries whose backoff expired -----------------------
            while retry_pool and retry_pool[0][0] <= t:
                _, request = retry_pool.pop(0)
                shed = queue.offer(request, t)
                if shed is not None:
                    metrics.record_shed(request.tenant, shed.reason)

            # -- 6. dispatch everything dispatchable at t ---------------
            while len(queue):
                replica = self._pick_replica(states, health, rr_last)
                if replica is None or replica.free_at > t:
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
                expected = self.coster.batch_seconds(network, len(batch))
                expected *= _worst_factor(self.service_windows, t)
                if checking:
                    # every batch pays the ABFT checksum passes
                    expected *= LATENCY_OVERHEAD
                job = _BatchJob(
                    requests=batch,
                    network=network,
                    dispatched_at=t,
                    expected_s=expected,
                )
                # SDC windows corrupt at dispatch; detection is decided
                # here too so hedging/crash races can't skew the streams
                for idx, sdc in enumerate(self.sdc_faults):
                    if sdc.replica != replica.rid or not sdc.active_at(t):
                        continue
                    if sdc_rngs[idx].random() < sdc.per_batch:
                        job.corrupted = True
                        job.sdc_rid = replica.rid
                        if checking:
                            job.sdc_detected = (
                                DETECTION_RATE >= 1.0
                                or sdc_rngs[idx].random() < DETECTION_RATE
                            )
                rr_last = replica.rid
                if replica.crashed_by(t):
                    # a doomed dispatch into the detection window: the
                    # batch is lost; recovery happens at the probe tick
                    replica.inflight = job
                    replica.free_at = math.inf
                    continue
                service = expected * replica.service_multiplier(t)
                if job.corrupted and job.sdc_detected:
                    # detect-and-recompute: only the flagged partial maps
                    # re-execute, so the surcharge is a fraction, not 2x
                    service *= 1.0 + RECOMPUTE_OVERHEAD
                replica.inflight = job
                replica.free_at = t + service
                replica.busy_s += service
                replica.batches += 1
                if (
                    policy.hedge
                    and health.is_slow(replica.rid)
                    and len(health.alive_rids()) > 1
                ):
                    twin = self._hedge_target(states, health, replica.rid, t)
                    if twin is not None:
                        hedges += 1
                        twin_service = expected * twin.service_multiplier(t)
                        twin.inflight = job
                        twin.free_at = t + twin_service
                        twin.busy_s += twin_service
                        twin.batches += 1

        # -- drain: everything still queued has nowhere to run ----------
        leftovers: List[Request] = [r for _, r in retry_pool]
        while len(queue):
            for network in queue.networks():
                batch, shed_events = queue.pop_batch(network, len(queue), t)
                for event in shed_events:
                    metrics.record_shed(event.request.tenant, event.reason)
                leftovers.extend(batch)
        for request in sorted(leftovers, key=lambda r: r.rid):
            fail(request, FAILED_NO_REPLICAS)

        busy_s = sum(s.busy_s for s in states)
        summary = metrics.summary(duration_s, self.n_replicas, busy_s)
        summary["per_replica"] = [
            s.detail(summary["makespan_s"], health.status(s.rid)) for s in states
        ]
        summary["terminated"] = (
            summary["completed"] + summary["shed"] + summary["failed"]
        )
        summary["failover"] = {
            "policy": policy.to_dict(),
            "faults": [f.to_dict() for f in self.faults],
            "retries": retries_scheduled,
            "hedges": hedges,
            "hedge_wasted_ms": round(hedge_wasted_s * 1e3, 6),
            "health_timeline": health.timeline_dicts(),
            "service_windows": [
                {
                    "start_ms": round(s * 1e3, 6),
                    "end_ms": round(e * 1e3, 6),
                    "multiplier": round(m, 6),
                }
                for s, e, m in self.service_windows
            ],
        }
        if ver is not None or self.sdc_faults:
            corrupted = sum(v.corrupted_batches for v in vreps)
            detected = sum(v.detected for v in vreps)
            summary["integrity"] = {
                "policy": ver.to_dict() if ver is not None else None,
                "sdc_faults": [f.to_dict() for f in self.sdc_faults],
                "checked_batches": sum(v.checked_batches for v in vreps),
                "corrupted_batches": corrupted,
                "detected": detected,
                "corrected": sum(v.corrected for v in vreps),
                "escaped_batches": sum(v.escaped_batches for v in vreps),
                "escaped_requests": sum(v.escaped_requests for v in vreps),
                "detection_rate": round(detected / corrupted, 6)
                if corrupted
                else None,
                "drained_replicas": [v.rid for v in vreps if v.drained],
                "per_replica": [v.detail() for v in vreps],
            }
        summary["engine"] = engine_summary(
            self.config.name,
            self.plan_policy,
            self.batch_policy,
            self.queue_policy,
            self.routing,
            failover=policy.describe(),
        )
        if extra_meta:
            summary["workload"] = dict(sorted(extra_meta.items()))
        return ServingReport(summary=summary, metrics=metrics, replicas=list(states))

    def _hedge_target(
        self,
        states: List[FaultyReplica],
        health: HealthChecker,
        primary: int,
        t: float,
    ) -> Optional[FaultyReplica]:
        """An idle, believed-healthy replica to duplicate a batch onto."""
        for rid in health.alive_rids():
            if rid == primary or health.is_slow(rid):
                continue
            s = states[rid]
            if s.inflight is None and s.free_at <= t and not s.crashed_by(t):
                return s
        return None


# -- the differential test ----------------------------------------------------

NETWORKS = ("alexnet", "nin", "googlenet")
#: shared: each (network, batch) plan derives once per test run
COSTER = BatchCoster(CONFIG_16_16)
DURATION_S = 0.3

#: instants on a coarse millisecond grid, so arrivals, faults and window
#: edges often coincide
TIMES = st.integers(min_value=0, max_value=300).map(lambda ms: ms / 1e3)
SPANS = st.integers(1, 300).map(lambda ms: ms / 1e3)
#: a crash: (replica, instant, where, batch pick), where "at" crashes at
#: the instant, "tick" on the probe tick at or before it, and "done" and
#: "mid" on the replica of a batch of the crash-free run, as that batch
#: completes or halfway through it
crash_specs = st.tuples(
    st.integers(0, 3),
    TIMES,
    st.sampled_from(("at", "tick", "done", "mid")),
    st.integers(0, 63),
)
#: (network, tenant, SLO) of a request
REQUEST_KINDS = [
    (net, tenant, slo)
    for net in NETWORKS
    for tenant in ("acme", "beta")
    for slo in (0.02, 0.1, 1.0)
]


def _workload(count: int, seed: int) -> List[Tuple[float, tuple]]:
    """``count`` (arrival, kind) pairs, arrivals on the millisecond grid."""
    rng = random.Random(seed)
    return [
        (rng.randrange(301) / 1e3, rng.choice(REQUEST_KINDS)) for _ in range(count)
    ]


#: drawn as a (count, seed) pair: two choices per workload keep examples
#: cheap to generate, so they can carry real traffic
workloads = st.tuples(st.integers(0, 40), st.integers(0, 2**16)).map(
    lambda spec: _workload(*spec)
)
#: policies are single choices too, for the same reason
queue_policies = st.sampled_from(
    [
        QueuePolicy(depth, order, max_age, expired)
        for depth, order, max_age, expired in product(
            (1024, 8, 3), ("fifo", "edf"), (None, 0.05), (False, True)
        )
    ]
)
batch_policies = st.sampled_from(
    [
        BatchPolicy(max_batch, max_wait_ms)
        for max_batch, max_wait_ms in product(range(1, 7), (0.0, 5.0, 50.0))
    ]
)
#: (routing, replicas) of a fleet
fleets = st.sampled_from(list(product(ROUTING_KINDS, range(1, 5))))
#: (replica, from, factor, span or None for open-ended) of a slow fault
slows = st.tuples(
    st.integers(0, 3),
    TIMES,
    st.sampled_from((1.5, 3.0, 6.0)),
    st.one_of(st.none(), SPANS),
)
#: (start, span, multiplier) of a service window
windows = st.tuples(TIMES, SPANS, st.sampled_from((1.0, 1.5, 3.0)))
#: (replica, start, span, per-batch probability, seed) of an SDC window
sdc_specs = st.tuples(
    st.integers(0, 3), TIMES, SPANS, st.sampled_from((0.5, 1.0)), st.integers(0, 9)
)
verifications = st.sampled_from(
    (None, VerificationPolicy(enabled=True), VerificationPolicy(enabled=False))
)


@contextmanager
def retry_budget(budget: int) -> Iterator[None]:
    """Both loops' retry budget, for one example."""
    global MAX_RETRIES
    saved = MAX_RETRIES
    MAX_RETRIES = engine_module.MAX_RETRIES = budget
    try:
        yield
    finally:
        MAX_RETRIES = engine_module.MAX_RETRIES = saved


def _alexnet(*arrivals):
    return [(t, ("alexnet", "acme", 1.0)) for t in arrivals]


#: the hedged-crash repro: replica 0 runs x4 slow, so the request at
#: 89.9 ms is hedged onto replica 1; either copy's replica then crashes
_HEDGED = dict(
    workload=_alexnet(0.0, 0.001, 0.0899),
    queue_policy=QueuePolicy(),
    batch_policy=BatchPolicy(max_batch=1, max_wait_ms=0.0),
    fleet=("round-robin", 2),
    slow_specs=[(0, 0.0, 4.0, None)],
    service_windows=[],
    sdc=[],
    verification=None,
    hedge=True,
    budget=MAX_RETRIES,
)


@settings(max_examples=150, deadline=None)
@given(
    workload=workloads,
    queue_policy=queue_policies,
    batch_policy=batch_policies,
    fleet=fleets,
    crashes=st.lists(crash_specs, max_size=4),
    slow_specs=st.lists(slows, max_size=3),
    service_windows=st.lists(windows, max_size=2),
    sdc=st.lists(sdc_specs, max_size=2),
    verification=verifications,
    hedge=st.booleans(),
    budget=st.sampled_from((0, 1, MAX_RETRIES)),
)
@example(crashes=[(1, 0.0917, "at", 0)], **_HEDGED)
@example(crashes=[(0, 0.095, "at", 0)], **_HEDGED)
@example(crashes=[(0, 0.105, "at", 0)], **_HEDGED)
@example(crashes=[(0, 0.095, "at", 0), (1, 0.102, "at", 0)], **_HEDGED)
@example(crashes=[(0, 0.120, "at", 0)], **_HEDGED)
# one request lost three times: a running batch, then two doomed
# dispatches onto replicas that crashed but are not yet marked down
@example(
    workload=_alexnet(0.0),
    queue_policy=QueuePolicy(),
    batch_policy=BatchPolicy(max_batch=1, max_wait_ms=0.0),
    fleet=("least-loaded", 4),
    crashes=[(0, 0.001, "at", 0), (1, 0.052, "at", 0), (2, 0.101, "at", 0)],
    slow_specs=[],
    service_windows=[],
    sdc=[],
    verification=None,
    hedge=False,
    budget=MAX_RETRIES,
)
# caught corruptions drain the lone replica: sticky slow, still serving
@example(
    workload=_alexnet(*(k / 100 for k in range(8))),
    queue_policy=QueuePolicy(),
    batch_policy=BatchPolicy(max_batch=1, max_wait_ms=0.0),
    fleet=("least-loaded", 1),
    crashes=[],
    slow_specs=[],
    service_windows=[],
    sdc=[(0, 0.0, 0.3, 1.0, 1)],
    verification=VerificationPolicy(enabled=True),
    hedge=False,
    budget=MAX_RETRIES,
)
# the lone replica is down when the request arrives at 68 ms, and the run
# settles the stranded request at its own clock, not at the unrelated slow
# fault at 119 ms: it has not aged past max_age (50 ms), so it fails
# (no_replicas) rather than being shed
@example(
    workload=_workload(1, 1),
    queue_policy=QueuePolicy(max_age_s=0.05),
    batch_policy=BatchPolicy(max_batch=1, max_wait_ms=0.0),
    fleet=("round-robin", 1),
    crashes=[(0, 0.0, "at", 0)],
    slow_specs=[(0, 0.119, 1.5, None)],
    service_windows=[],
    sdc=[],
    verification=None,
    hedge=False,
    budget=0,
)
def test_serving_engine_matches_failover_loop(
    workload, queue_policy, batch_policy, fleet, crashes, slow_specs,
    service_windows, sdc, verification, hedge, budget,
):
    routing, replicas = fleet
    requests = [
        Request(rid, tenant, network, arrival, arrival + slo)
        for rid, (arrival, (network, tenant, slo)) in enumerate(workload)
    ]
    kwargs = dict(
        batch_policy=batch_policy,
        queue_policy=queue_policy,
        replicas=replicas,
        routing=routing,
        coster=COSTER,
        failover_policy=FailoverPolicy(hedge=hedge),
        service_windows=[(t, t + span, m) for t, span, m in service_windows],
        sdc_faults=[
            SDCFault(rid % replicas, t, span, per_batch, seed)
            for rid, t, span, per_batch, seed in sdc
        ],
        verification=verification,
    )
    faults = [
        ReplicaFault(
            "slow", rid % replicas, t, factor, math.inf if span is None else span
        )
        for rid, t, factor, span in slow_specs
    ]
    with retry_budget(budget):
        rows = []
        if any(where in ("done", "mid") for _, _, where, _ in crashes):
            probe = AdaptiveServingEngine(
                CONFIG_16_16,
                batch_policy=batch_policy,
                queue_policy=queue_policy,
                replicas=replicas,
                routing=routing,
                coster=COSTER,
            )
            probe.arm_failover(
                faults,
                kwargs["failover_policy"],
                kwargs["service_windows"],
                kwargs["sdc_faults"],
                verification,
            )
            probe.ingest(requests)
            probe.advance_to(math.inf)
            log = probe.metrics
            rows = list(zip(log.batch_replicas, log.batch_starts, log.batch_finishes))
        for rid, t, where, pick in crashes:
            if where == "tick":
                t = math.floor(t / DETECT_INTERVAL_S) * DETECT_INTERVAL_S
            elif where != "at" and rows:
                rid, start, finish = rows[pick % len(rows)]
                t = finish if where == "done" else (start + finish) / 2
            faults.append(ReplicaFault("crash", rid % replicas, t))
        want = FailoverLoopEngine(CONFIG_16_16, faults=faults, **kwargs).run(
            requests, DURATION_S, {"seed": 0}
        )
        got = ServingEngine(CONFIG_16_16, faults=faults, **kwargs).run(
            requests, DURATION_S, {"seed": 0}
        )
    # the canonical JSON without its indentation, which only the slower
    # pure-Python encoder writes: equal either way
    assert json.dumps(got.summary, sort_keys=True) == json.dumps(
        want.summary, sort_keys=True
    )
    rows = [
        (log.batch_replicas, log.batch_starts, log.batch_finishes, log.batch_sizes)
        for log in (want.metrics, got.metrics)
    ]
    assert rows[1] == rows[0]
    by_rid = [
        sorted(log.completed, key=lambda r: r.rid)
        for log in (want.metrics, got.metrics)
    ]
    assert by_rid[1] == by_rid[0]
