"""The serving event loop: arrivals → queue → batches → replicas → metrics.

There is one loop, :meth:`AdaptiveServingEngine.advance_to`.  It advances
*simulated accelerator time* (seconds) through a request arriving, a batch
becoming dispatchable on an available replica, and pending fault events
(a batch-boundary crash; in a failover run also a lossy crash, a batch
completion, a crash detection and a retry), so a run is a
deterministic function of (workload, policies, actions, faults, config).
Arrivals are offered in bulk between dispatches: one pass admits or sheds
every arrival strictly before the next possible dispatch and the next
fault event.  That is exact: admission uses each arrival's own time,
queue depth falls only at a dispatch, an arrival never changes which
replica is picked, and an accepted offer can only pull its group's ready
time earlier, so the pass keeps its bound current as offers land.  Batch
service time comes from the planned
:class:`~repro.adaptive.batch.BatchRun` for that (network, batch size)
pair via :class:`~repro.serve.batcher.BatchCoster`; no wall clock is ever
consulted.  :class:`ServingEngine` is this engine run once on a fixed
fleet, with no mid-run actions; failover runs are served that way.

The loop carries row numbers of the columnar request stream
(:class:`~repro.serve.workload.Arrivals`) through the queue, the
failover paths and the completion log.  It reads the stream's values as
Python floats one window of rows at a time, never the whole stream at
once and never by NumPy scalar indexing on the arrival path.

Replicas model independent accelerator instances sharing the admission
queue.  Two routing disciplines:

* ``round-robin`` — strict turn order: the next batch waits for the next
  replica in the cycle, even if another is already idle (simple, fair,
  and the baseline a smarter router must beat);
* ``least-loaded`` — the batch goes to the replica that frees up
  earliest (ties broken by replica id, for determinism).

The loop drains the queue after the last arrival, so every admitted
request is either completed or shed by the time ``finish``/``run``
returns.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import AcceleratorConfig
from repro.errors import ConfigError, check_choice, check_count, check_real
from repro.perf.instrument import phase
from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.failover import (
    FAILED_NO_REPLICAS,
    FAILED_RETRIES,
    MAX_RETRIES,
    SLOW_THRESHOLD,
    FailoverPolicy,
    ReplicaFault,
    backoff_s,
    detection_time,
)
from repro.serve.metrics import MetricsCollector, to_json
from repro.serve.queue import AdmissionQueue, QueuePolicy
from repro.serve.verified import (
    DRAIN_THRESHOLD,
    LATENCY_OVERHEAD,
    RECOMPUTE_OVERHEAD,
    SDCFault,
    VerificationPolicy,
    VerifiedReplica,
)
from repro.serve.workload import Arrivals, Request

__all__ = [
    "AdaptiveReplica",
    "AdaptiveServingEngine",
    "ReplicaState",
    "ServingEngine",
    "ServingReport",
    "per_chip_rollup",
    "ROUTING_KINDS",
]

ROUTING_KINDS = ("round-robin", "least-loaded")

#: stream rows read into Python values at a time by the loop
_WINDOW = 4096

#: pending fault events, ``(at_s, kind, key, seq, replica, detail)``: at one
#: instant a batch-boundary crash or a lossy crash applies first, then
#: completions, crash detections and (after that instant's arrivals)
#: retries, each in ``key`` order (replica rid; request rid for retries,
#: whose detail is the request's stream row)
_CRASH, _FAULT, _DONE, _DETECT, _RETRY = range(5)


@dataclass
class ReplicaState:
    """One accelerator instance's occupancy bookkeeping.

    A replica may be tagged with the physical ``chip`` hosting it — two
    replicas sharing a chip model co-resident partitions
    (:mod:`repro.tenancy`), and ``chip_share`` is the fraction of that
    chip's compute the replica owns (1.0 for a whole chip).  Untagged
    replicas behave exactly as before; the tag only adds accounting.
    """

    rid: int
    free_at: float = 0.0
    busy_s: float = 0.0
    batches: int = 0
    completed: int = 0
    chip: Optional[str] = None
    chip_share: float = 1.0

    def detail(self, makespan_s: float) -> Dict[str, object]:
        """JSON-friendly per-replica stats (the health checker's input)."""
        out = {
            "rid": self.rid,
            "busy_ms": round(self.busy_s * 1e3, 6),
            "batches": self.batches,
            "completed": self.completed,
            "utilization": round(self.busy_s / makespan_s, 6)
            if makespan_s
            else 0.0,
        }
        if self.chip is not None:
            out["chip"] = self.chip
            out["chip_share"] = round(self.chip_share, 6)
        return out


def engine_summary(
    config_name: str,
    plan_policy: str,
    batch_policy: BatchPolicy,
    queue_policy: QueuePolicy,
    routing: str,
    **extra: object,
) -> Dict[str, object]:
    """The ``engine`` block of a serving summary: what served the run."""
    return {
        "config": config_name,
        "plan_policy": plan_policy,
        "batching": batch_policy.describe(),
        "max_batch": batch_policy.max_batch,
        "max_wait_ms": batch_policy.max_wait_ms,
        "queue_depth": queue_policy.max_depth,
        "queue_order": queue_policy.order,
        "routing": routing,
        **extra,
    }


def _apply_chip_tags(
    replicas: Sequence[ReplicaState],
    chip_map: Optional[Dict[int, str]],
    chip_shares: Optional[Dict[int, float]],
) -> None:
    """Annotate replicas with their hosting chip (validated)."""
    if chip_shares and not chip_map:
        raise ConfigError("chip_shares requires chip_map")
    if not chip_map:
        return
    rids = {r.rid for r in replicas}
    for rid in sorted(chip_map):
        if rid not in rids:
            raise ConfigError(
                f"chip_map names unknown replica rid {rid!r}; "
                f"valid rids: {sorted(rids)}"
            )
    for rid, share in sorted((chip_shares or {}).items()):
        if rid not in chip_map:
            raise ConfigError(
                f"chip_shares names rid {rid!r} that has no chip_map entry"
            )
        check_real(share, f"chip share for rid {rid!r}", gt=0, le=1)
    for replica in replicas:
        chip = chip_map.get(replica.rid)
        if chip is not None:
            replica.chip = chip
            replica.chip_share = (chip_shares or {}).get(replica.rid, 1.0)


def per_chip_rollup(
    replicas: Sequence[ReplicaState],
    chip_spans: Dict[str, float],
) -> Dict[str, Dict[str, object]]:
    """Aggregate chip-tagged replicas by physical chip, counted once.

    ``chip_spans`` maps each chip to the seconds it was provisioned
    (makespan for a static fleet, the co-resident lifetime envelope for an
    adaptive one).  Co-resident partitions contribute their busy time
    weighted by their ``chip_share``, so a chip whose two half-partitions
    are both saturated reports utilization 1.0 — and its chip-seconds are
    charged once, not once per partition.
    """
    chips: Dict[str, Dict[str, object]] = {}
    for replica in sorted(replicas, key=lambda r: r.rid):
        if replica.chip is None:
            continue
        entry = chips.setdefault(
            replica.chip,
            {"replicas": [], "busy_ms": 0.0, "weighted_busy_s": 0.0},
        )
        entry["replicas"].append(replica.rid)
        entry["busy_ms"] += replica.busy_s * 1e3
        entry["weighted_busy_s"] += replica.busy_s * replica.chip_share
    out: Dict[str, Dict[str, object]] = {}
    for chip in sorted(chips):
        entry = chips[chip]
        span = chip_spans.get(chip, 0.0)
        out[chip] = {
            "replicas": entry["replicas"],
            "busy_ms": round(entry["busy_ms"], 6),
            "chip_seconds": round(span, 6),
            "utilization": round(entry["weighted_busy_s"] / span, 6)
            if span
            else 0.0,
        }
    return out


@dataclass
class ServingReport:
    """Everything one simulated run produced."""

    summary: Dict[str, object]
    metrics: MetricsCollector
    replicas: List[ReplicaState] = field(default_factory=list)

    def to_json(self) -> str:
        """Canonical JSON of the summary (byte-stable across reruns)."""
        return to_json(self.summary)


@dataclass
class AdaptiveReplica(ReplicaState):
    """A replica whose membership in the fleet can change mid-run."""

    #: simulated instant the replica joined the fleet
    added_s: float = 0.0
    #: set when the replica leaves (drain/scale-down); the chip is held
    #: until in-flight work finishes, so this is ``max(drain time, free_at)``
    retired_s: Optional[float] = None
    #: gray-failure injection: ``(from_s, until_s, factor)`` windows; a
    #: dispatch at ``t`` pays the worst factor of every window containing it
    slow_windows: List[Tuple[float, float, float]] = field(default_factory=list)
    #: the instant the replica fail-stopped (vs an orderly drain)
    crashed_at: Optional[float] = None
    #: hardware self-report of a partial PE failure: ``{"masked_cols",
    #: "masked_rows", "from_s"}`` plus ``"replanned"`` once healed — the
    #: health probe's input, opaque to the engine itself
    degraded: Optional[Dict[str, object]] = None
    # -- failover run state (:meth:`AdaptiveServingEngine.arm_failover`) --
    #: what the health checker believes: ``"up"``, ``"slow"`` or ``"down"``
    status: str = field(default="up", init=False)
    #: slow-marked for good (SDC drain): completions cannot revive it
    quarantined: bool = field(default=False, init=False)
    #: the batch running on the replica, or lost with it after a crash
    inflight: Optional["_Flight"] = field(default=None, init=False)
    #: SDC windows on this replica, each with its seeded corruption stream
    sdc_windows: List[Tuple[SDCFault, random.Random]] = field(
        default_factory=list, init=False
    )
    #: ABFT bookkeeping, when the run has SDC windows or a verification policy
    verified: Optional[VerifiedReplica] = field(default=None, init=False)

    @property
    def active(self) -> bool:
        """Eligible for new dispatches (not retired, not draining)."""
        return self.retired_s is None

    def lifetime_s(self, end_s: float) -> float:
        """Chip-seconds this replica was provisioned for."""
        end = self.retired_s if self.retired_s is not None else end_s
        return max(0.0, end - self.added_s)

    def detail(self, makespan_s: float) -> Dict[str, object]:
        out = super().detail(makespan_s)
        out["added_ms"] = round(self.added_s * 1e3, 6)
        out["retired_ms"] = (
            round(self.retired_s * 1e3, 6) if self.retired_s is not None else None
        )
        life = self.lifetime_s(makespan_s)
        out["utilization"] = round(self.busy_s / life, 6) if life else 0.0
        if self.crashed_at is not None:
            out["crashed"] = True
        return out


@dataclass(eq=False)
class _Flight:
    """A batch dispatched in a failover run: on one replica or, hedged, two."""

    #: the batch's stream rows
    batch: List[int]
    network: str
    start_s: float
    #: completed by one copy, or lost to crashes with no copy left running
    done: bool = False
    #: lost to crashes with no copy left running: the batch retries
    lost: bool = False
    #: runs of crashed copies whose crash was noticed while another copy
    #: still ran: wasted once that copy completes the batch
    crashed_run_s: float = 0.0
    #: the replica whose SDC window corrupted the batch; the corruption
    #: only materializes if that replica's copy wins
    corrupted_on: Optional[int] = None
    #: the ABFT check flags the corruption (decided at dispatch)
    flagged: bool = False


@dataclass
class _Failover:
    """An armed failover run's inputs, counters and health timeline."""

    policy: FailoverPolicy
    faults: Tuple[ReplicaFault, ...]
    #: global ``(start_s, end_s, multiplier)`` service-time windows
    service_windows: Tuple[Tuple[float, float, float], ...]
    sdc_faults: Tuple[SDCFault, ...]
    verification: Optional[VerificationPolicy]
    #: every batch pays the ABFT check
    checking: bool
    attempts: Dict[int, int] = field(default_factory=dict)
    retries: int = 0
    hedges: int = 0
    hedge_wasted_s: float = 0.0
    #: (time_s, rid, new status) transitions, in occurrence order
    timeline: List[Tuple[float, int, str]] = field(default_factory=list)

    @property
    def integrity(self) -> bool:
        """The run keeps ABFT bookkeeping (SDC windows or a policy)."""
        return self.verification is not None or bool(self.sdc_faults)


class AdaptiveServingEngine:
    """The serving event loop, whose fleet and batcher may change mid-run.

    It advances *simulated accelerator time* (seconds) through arrivals and
    dispatches onto available replicas; batch service time comes from
    :class:`~repro.serve.batcher.BatchCoster`, and no wall clock is ever
    consulted.  It is the actuation surface of the :mod:`repro.control`
    autoscaler; :class:`ServingEngine` runs it once on a fixed fleet.  The
    loop is resident, so a controller steps it at *epoch boundaries*:

    * :meth:`ingest` feeds (time-sorted) requests into the arrival stream;
    * :meth:`advance_to` runs arrivals/dispatches/completions up to a
      simulated instant and stops — the epoch boundary;
    * :meth:`add_replica` / :meth:`drain_replica` / :meth:`set_batch_policy`
      mutate the fleet and the batcher between epochs.  A drained replica
      takes no new work and releases its chip once in-flight work finishes;
      new replicas join with a fresh, never-reused rid;
    * :meth:`finish` drains everything left and reduces to a
      :class:`ServingReport` whose ``fleet`` section carries chip-seconds,
      the resize timeline, and per-replica lifetimes.

    Routing has dynamic-membership semantics: round-robin cycles over the
    *active* rids (resuming after the last dispatched one, so a fixed fleet
    takes strict turns even when another replica is already idle),
    least-loaded picks the earliest-free active replica with ties to the
    lowest rid.  :meth:`arm_failover` turns a run into a failover run,
    whose crashes lose in-flight work.  Everything remains a deterministic
    function of (workload, actions, faults, config): no wall clock, no
    unordered state.
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
        replica_costers: Optional[Sequence[BatchCoster]] = None,
        chip_map: Optional[Dict[int, str]] = None,
        chip_shares: Optional[Dict[int, float]] = None,
    ) -> None:
        replicas = check_count(replicas, "replicas", 1)
        check_choice(routing, "routing", ROUTING_KINDS)
        if replica_costers is not None and len(replica_costers) != replicas:
            raise ConfigError(
                f"replica_costers has {len(replica_costers)} entries for "
                f"{replicas} replicas; one coster per replica (rid order)"
            )
        self.config = config
        self.batch_policy = batch_policy
        self.queue_policy = queue_policy
        self.routing = routing
        self.plan_policy = plan_policy
        self.coster = coster or BatchCoster(config, policy=plan_policy)
        self.replicas: List[AdaptiveReplica] = [
            AdaptiveReplica(rid) for rid in range(replicas)
        ]
        _apply_chip_tags(self.replicas, chip_map, chip_shares)
        #: the replicas taking new work, in rid order (kept current by
        #: add/drain/crash, since every dispatch picks from it)
        self._active: List[AdaptiveReplica] = list(self.replicas)
        #: per-rid coster overrides (mixed fleets); missing rids fall back
        self._replica_costers: Dict[int, BatchCoster] = {}
        if replica_costers is not None:
            for rid, override in enumerate(replica_costers):
                if override is not None:
                    self._replica_costers[rid] = override
        self._next_rid = replicas
        self._queue = AdmissionQueue(queue_policy)
        #: every ingested request, in (arrival, rid) order; rows before
        #: ``_pi`` have been offered
        self._stream = Arrivals.from_requests(())
        self.metrics = MetricsCollector(self._stream)
        self._pi = 0
        #: ``(lo, hi, arrivals, deadlines, rids, networks)``: stream rows
        #: ``[lo, hi)`` as Python values (see :meth:`_window`)
        self._win: tuple = (0, 0, [], [], [], [])
        self._now = 0.0
        self._rr_last = -1
        #: busy_overlap's cursor: every logged batch before ``_busy_lo``
        #: finished at or before ``_busy_from``
        self._busy_lo = 0
        self._busy_from = -math.inf
        #: (time_s, event, rid-or-None, detail) fleet/batcher change log
        self.fleet_events: List[Tuple[float, str, Optional[int], str]] = []
        #: heap of pending fault events (see ``_CRASH``); ``_seq`` breaks ties
        self._faults: List[tuple] = []
        self._seq = 0
        #: set by :meth:`arm_failover`
        self._failover: Optional[_Failover] = None

    # -- fleet state -------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def offered(self) -> int:
        """Requests whose arrival the loop has processed so far."""
        return self._pi

    def queue_depth(self) -> int:
        return len(self._queue)

    def active_replicas(self) -> List[AdaptiveReplica]:
        return list(self._active)

    def n_active(self) -> int:
        return len(self._active)

    def _replica(self, rid: int) -> AdaptiveReplica:
        """The replica with id ``rid``, retired or not."""
        state = next((r for r in self.replicas if r.rid == rid), None)
        if state is None:
            raise ConfigError(f"unknown replica rid {rid!r}")
        return state

    def chip_seconds(self, end_s: float) -> float:
        # fsum rounds once, so a fixed fleet costs exactly replicas * end_s
        return math.fsum(r.lifetime_s(end_s) for r in self.replicas)

    # -- actuation ---------------------------------------------------------

    def ingest(self, requests: Sequence[Request]) -> None:
        """Append arrivals to the stream (must not predate current time).

        An :class:`~repro.serve.workload.Arrivals` stream already in
        (arrival, rid) order is shared as it is; one out of order, or a
        sequence of :class:`Request` records, is converted (and sorted)
        once.
        """
        fresh = Arrivals.from_requests(requests)
        if len(fresh):
            first = float(fresh.arrival[0])
            if first < self._now:
                raise ConfigError(
                    f"cannot ingest an arrival at {first!r}s: the "
                    f"loop has already advanced to {self._now!r}s"
                )
            if self._pi < len(self._stream):
                tail = float(self._stream.arrival[-1])
                if first < tail:
                    raise ConfigError(
                        f"ingested arrivals start at {first!r}s, "
                        f"before the pending stream's tail at {tail!r}s"
                    )
        self._stream = self.metrics.stream = self._stream.concat(fresh)

    def _window(self, row: int) -> tuple:
        """Read stream rows from ``row`` on, ``_WINDOW`` at a time, into
        Python values; returns (and keeps) the new ``_win``."""
        stream = self._stream
        hi = min(row + _WINDOW, len(stream))
        names = stream.networks
        self._win = (
            row,
            hi,
            stream.arrival[row:hi].tolist(),
            stream.deadline[row:hi].tolist(),
            stream.rid[row:hi].tolist() if stream.rid is not None else range(row, hi),
            [names[code] for code in stream.network[row:hi].tolist()],
        )
        return self._win

    def _offer_through(self, t: float) -> None:
        """Offer every pending arrival at or before ``t``."""
        queue, n = self._queue, len(self._stream)
        i = self._pi
        lo, hi, arrivals, deadlines, rids, networks = self._win
        while i < n:
            if i >= hi:
                lo, hi, arrivals, deadlines, rids, networks = self._window(i)
            k = i - lo
            if arrivals[k] > t:
                break
            shed = queue.offer(i, rids[k], networks[k], arrivals[k], deadlines[k])
            if shed is not None:
                self.metrics.record_shed(i, shed)
            i += 1
        self._pi = i

    def add_replica(self, chip: Optional[str] = None) -> int:
        """Provision one replica now; returns its (never-reused) rid.

        ``chip`` tags the replica with its hosting chip for per-chip
        accounting; it is costed by the fleet coster.
        """
        rid = self._next_rid
        self._next_rid += 1
        state = AdaptiveReplica(rid, free_at=self._now, added_s=self._now, chip=chip)
        if self._failover is not None and self._failover.integrity:
            state.verified = VerifiedReplica(rid)
        self.replicas.append(state)
        self._active.append(state)
        self.fleet_events.append(
            (self._now, "add", rid, chip if chip is not None else "")
        )
        return rid

    def drain_replica(self, rid: int, reason: str = "scale-down") -> float:
        """Stop scheduling onto ``rid``; the chip is released when idle.

        Returns the retirement instant (``max(now, free_at)``).  Draining
        the last active replica is refused — queued work would be stranded.
        """
        state = self._replica(rid)
        if not state.active:
            raise ConfigError(f"replica {rid} is already retired")
        if self.n_active() <= 1:
            raise ConfigError(
                "cannot drain the last active replica; queued work would "
                "be stranded"
            )
        state.retired_s = max(self._now, state.free_at)
        self._active.remove(state)
        self.fleet_events.append((self._now, "drain", rid, reason))
        return state.retired_s

    def set_batch_policy(self, policy: BatchPolicy, reason: str = "retune") -> None:
        """Swap the live batching knobs; applies to every later dispatch."""
        if not isinstance(policy, BatchPolicy):
            raise ConfigError(
                f"expected a BatchPolicy, got {type(policy).__name__}"
            )
        if policy != self.batch_policy:
            self.fleet_events.append(
                (self._now, "retune", None, policy.describe())
            )
        self.batch_policy = policy

    def set_slow(self, rid: int, factor: float, from_s: float, until_s: float) -> None:
        """Inject a fail-slow window (the control plane's health stimulus).

        Windows accumulate: a replica can degrade more than once, and a
        dispatch inside overlapping windows pays the worst factor.
        """
        check_real(factor, "slow factor", ge=1)
        if not until_s > from_s:
            raise ConfigError(
                f"slow window must have until > from, got [{from_s!r}, {until_s!r})"
            )
        state = self._replica(rid)
        state.slow_windows.append((from_s, until_s, factor))

    def schedule_crash(self, rid: int, at_s: float, reason: str = "crash") -> None:
        """Arm a fail-stop at ``at_s``: no new work after that instant.

        Fail-stop is batch-boundary: the in-flight batch (if any) completes
        and its completions stand, but nothing dispatches onto the replica
        at or after the crash instant.  Unlike :meth:`drain_replica` a crash
        may take out the last active replica — requests still queued when
        the fleet hits zero are accounted as failed at :meth:`finish`.
        """
        check_real(at_s, "crash time", ge=0)
        state = self._replica(rid)
        if any(e[1] == _CRASH and e[4] is state for e in self._faults):
            raise ConfigError(f"replica {rid} already has a crash scheduled")
        self._push(at_s, _CRASH, rid, state, reason)

    def arm_failover(
        self,
        faults: Sequence[ReplicaFault] = (),
        policy: FailoverPolicy = FailoverPolicy(),
        service_windows: Sequence[Tuple[float, float, float]] = (),
        sdc_faults: Sequence[SDCFault] = (),
        verification: Optional[VerificationPolicy] = None,
    ) -> None:
        """Serve from now on under faults whose in-flight work is lost.

        A ``crash`` fault is fail-stop at its instant: the batch running on
        the replica is lost, and routing keeps choosing the replica (each
        dispatch onto it lost too) until the first probe tick after the
        crash marks it down.  Lost requests retry after a capped backoff
        while the retry budget lasts and otherwise fail with a reason.
        Completions mark a replica slow when its service reached
        ``SLOW_THRESHOLD`` times the expected one (least-loaded routing
        then prefers healthy replicas at equal load), and ``policy.hedge``
        duplicates a batch sent to a slow replica onto an idle healthy one.
        ``service_windows`` stretch every batch's expected time by the
        worst ``(start_s, end_s, multiplier)`` window containing its
        dispatch.  ``sdc_faults`` corrupt batches silently; with a
        ``verification`` policy every batch pays the ABFT check, a caught
        corruption is recomputed, and ``DRAIN_THRESHOLD`` catches
        quarantine the replica as slow.
        """
        if self._failover is not None:
            raise ConfigError("failover is already armed")
        for kind, rid in [("fault", f.replica) for f in faults] + [
            ("SDC fault", f.replica) for f in sdc_faults
        ]:
            if rid >= len(self.replicas):
                raise ConfigError(
                    f"{kind} targets replica {rid} but the tier has only "
                    f"{len(self.replicas)} replicas"
                )
        for start, end, mult in service_windows:
            if not end > start:
                raise ConfigError(
                    f"service window must have end > start, got "
                    f"[{start!r}, {end!r})"
                )
            check_real(mult, "service multiplier", ge=1)
        faults = tuple(sorted(faults, key=lambda f: (f.time_s, f.replica)))
        sdc_faults = tuple(sorted(sdc_faults, key=lambda f: (f.time_s, f.replica)))
        self._failover = _Failover(
            policy=policy,
            faults=faults,
            service_windows=tuple(
                sorted((float(s), float(e), float(m)) for s, e, m in service_windows)
            ),
            sdc_faults=sdc_faults,
            verification=verification,
            checking=verification is not None and verification.enabled,
        )
        for f in faults:
            if f.kind == "slow":  # a window prices only the dispatches inside it
                self.set_slow(f.replica, f.factor, f.time_s, f.time_s + f.duration_s)
            else:
                self._push(f.time_s, _FAULT, f.replica, self._replica(f.replica), f)
        # one seeded stream per SDC window, consumed in dispatch order
        for idx, fault in enumerate(sdc_faults):
            self._replica(fault.replica).sdc_windows.append(
                (fault, random.Random(fault.seed + 7919 * idx))
            )
        if self._failover.integrity:
            for state in self.replicas:
                state.verified = VerifiedReplica(state.rid)

    def _push(self, at_s: float, kind: int, key: int, state, detail) -> None:
        heapq.heappush(self._faults, (at_s, kind, key, self._seq, state, detail))
        self._seq += 1

    def mark_degraded(
        self,
        rid: int,
        masked_cols: int,
        masked_rows: int,
        factor: float,
        from_s: float,
    ) -> None:
        """A partial PE failure self-reported by the hardware at ``from_s``.

        Until someone replans, the replica serves its *healthy* schedule on
        fewer lanes — a naive proportional slowdown of ``factor`` — and the
        mask geometry is visible to health probes via ``replica.degraded``.
        :meth:`heal_degraded` ends the naive window and swaps in a coster
        planned for the degraded geometry (Algorithm 2's answer).
        """
        check_real(factor, "degrade factor", ge=1)
        check_real(from_s, "degrade time", ge=0)
        state = self._replica(rid)
        if state.degraded is not None:
            raise ConfigError(f"replica {rid} is already degraded")
        state.degraded = {
            "masked_cols": masked_cols,
            "masked_rows": masked_rows,
            "from_s": from_s,
            "replanned": False,
        }
        state.slow_windows.append((from_s, math.inf, factor))
        self.fleet_events.append(
            (
                from_s,
                "degrade",
                rid,
                f"pe-mask cols={masked_cols} rows={masked_rows} "
                f"naive x{factor:g}",
            )
        )

    def heal_degraded(self, rid: int, coster: BatchCoster, note: str = "") -> None:
        """Replace a degraded replica's naive slowdown with a replanned coster.

        The open degrade window is truncated at the current instant and
        later dispatches are costed by ``coster`` (the degraded-geometry
        schedule), so healing takes effect exactly at the epoch boundary
        the controller applied it.
        """
        state = self._replica(rid)
        if state.degraded is None:
            raise ConfigError(f"replica {rid} is not degraded")
        if state.degraded.get("replanned"):
            raise ConfigError(f"replica {rid} is already replanned")
        from_s = float(state.degraded["from_s"])
        for i, (a, b, factor) in enumerate(state.slow_windows):
            if a == from_s and math.isinf(b):
                state.slow_windows[i] = (a, max(a, self._now), factor)
                break
        state.degraded["replanned"] = True
        self._replica_costers[rid] = coster
        self.fleet_events.append(
            (self._now, "replan", rid, note or coster.config.name)
        )

    def coster_for(self, rid: int) -> BatchCoster:
        """The cost model pricing ``rid``'s batches (override or fleet)."""
        return self._replica_costers.get(rid, self.coster)

    # -- the resident event loop -------------------------------------------

    def _apply_faults(self, up_to: float) -> None:
        """Apply every pending fault event at or before ``up_to``, in order."""
        faults = self._faults
        while faults and faults[0][0] <= up_to:
            at_s, kind, _, _, state, detail = heapq.heappop(faults)
            if kind == _CRASH:
                if not state.active:
                    continue  # already drained/retired; the crash is moot
                state.crashed_at = at_s
                state.retired_s = max(at_s, state.free_at)
                self._active.remove(state)
                self.fleet_events.append((at_s, "crash", state.rid, detail))
            elif kind == _FAULT:
                self._fault(state, detail)
            elif kind == _DONE:
                self._complete(state, at_s, detail)
            elif kind == _DETECT:
                self._detect(state, at_s)
            else:
                self._retry(detail, at_s)

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
        # earliest free; ``_active`` is in rid order, so ties keep the lowest
        # (in a failover run, once healthy replicas have beaten slow ones)
        if self._failover is not None:
            return min(active, key=lambda r: (r.free_at, r.status == "slow"))
        best = active[0]
        for state in active:
            if state.free_at < best.free_at:
                best = state
        return best

    def advance_to(self, t_end: float) -> None:
        """Run the event loop up to simulated time ``t_end`` and stop.

        Every arrival at or before ``t_end`` is ingested (admitted or
        shed), and every dispatch whose instant is at or before ``t_end``
        happens; nothing later does.  Idempotent for the same ``t_end``.
        ``t_end=inf`` runs until nothing is left to happen; crashes armed
        past that point stay armed (:meth:`finish` drops those past the
        makespan).
        """
        check_real(t_end, "advance_to time", finite=False)
        if t_end < self._now:
            raise ConfigError(
                f"cannot advance to {t_end!r}s: already at {self._now!r}s"
            )
        queue, metrics = self._queue, self.metrics
        batch_policy = self.batch_policy  # actions apply between calls
        offer, record_shed = queue.offer, metrics.record_shed
        failover, faults = self._failover, self._faults
        n = len(self._stream)
        self._apply_faults(self._now)
        while True:
            pick = self._pick()
            free_at = pick.free_at if pick is not None else math.inf
            fault_at = faults[0][0] if faults else math.inf
            ready = (
                queue.next_ready(batch_policy)[0]
                if len(queue) and pick is not None
                else math.inf
            )
            # -- bulk ingest: offer every arrival strictly before the next
            # possible dispatch and the next fault event.  Offers never
            # change the pick, and can only pull ``ready`` earlier, so it is
            # kept current while it still bounds the dispatch instant.
            bound = min(max(ready, free_at), fault_at)
            lo, hi, arrivals, deadlines, rids, networks = self._win
            i = self._pi
            while i < n:
                if i >= hi:
                    lo, hi, arrivals, deadlines, rids, networks = self._window(i)
                k = i - lo
                arrival = arrivals[k]
                if arrival >= bound or arrival > t_end:
                    break
                network = networks[k]
                shed = offer(i, rids[k], network, arrival, deadlines[k])
                if shed is not None:
                    record_shed(i, shed)
                elif ready > free_at:
                    group_ready = queue.ready_time(network, batch_policy)
                    if group_ready < ready:
                        ready = group_ready
                        bound = min(max(ready, free_at), fault_at)
                i += 1
            if i > self._pi:
                # the last offered arrival; a window refilled at ``i`` and
                # not yet read holds it no more
                if i > lo:
                    last = arrivals[i - 1 - lo]
                else:
                    last = float(self._stream.arrival[i - 1])
                self._now = max(self._now, last)
                self._pi = i

            # -- the next event: an arrival at or after the dispatch
            # instant, a dispatch, or a fault event.  A failover run's
            # events wake the loop; a batch-boundary crash only gates it
            arrival = arrivals[i - lo] if i < n else math.inf
            t = min(arrival, max(ready, free_at))
            if failover is not None:
                t = min(t, fault_at)
            if t == math.inf:
                break
            t = max(self._now, t)
            # a fault event before the next event changes who is eligible
            # to dispatch — apply it first, then recompute the event
            if fault_at <= min(t, t_end):
                self._now = max(self._now, fault_at)
                self._apply_faults(self._now)
                continue
            if t > t_end:
                break
            self._now = t
            if arrival <= t:
                self._offer_through(t)

            while len(queue):
                replica = self._pick()
                if replica is None or replica.free_at > t:
                    break
                ready, _, network = queue.next_ready(batch_policy)
                if ready > t:
                    break
                batch, shed_rows = queue.pop_batch(network, batch_policy.max_batch, t)
                for row, reason in shed_rows:
                    record_shed(row, reason)
                if not batch:
                    continue
                if failover is not None:
                    self._dispatch(replica, batch, network, t)
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
                metrics.record_served(batch, t, finish, replica.rid, network)
        if not math.isinf(t_end):
            self._apply_faults(t_end)
            self._now = max(self._now, t_end)

    # -- failover runs (armed by :meth:`arm_failover`) ----------------------

    def _expected_s(
        self, replica: AdaptiveReplica, network: str, size: int, t: float
    ) -> float:
        """A batch's service time on a healthy ``replica`` dispatched at ``t``."""
        failover = self._failover
        expected = self.coster_for(replica.rid).batch_seconds(network, size)
        if failover.service_windows:
            expected *= _worst_factor(failover.service_windows, t)
        if failover.checking:
            expected *= LATENCY_OVERHEAD  # every batch pays the checksum passes
        return expected

    def _dispatch(
        self, replica: AdaptiveReplica, batch: List[int], network: str, t: float
    ) -> None:
        """Start ``batch`` (stream rows) on ``replica`` (and its hedge copy)
        at ``t``."""
        failover = self._failover
        expected = self._expected_s(replica, network, len(batch), t)
        flight = _Flight(batch, network, t)
        # SDC windows corrupt at dispatch, so hedging and crash races cannot
        # skew the streams; the check catches every corruption
        # (``DETECTION_RATE`` is 1)
        for sdc, rng in replica.sdc_windows:
            if sdc.active_at(t) and rng.random() < sdc.per_batch:
                flight.corrupted_on = replica.rid
                flight.flagged = failover.checking
        self._rr_last = replica.rid
        replica.inflight = flight
        if replica.crashed_at is not None:
            # a doomed dispatch into the detection window: the batch is
            # lost, and recovered at the probe tick
            replica.free_at = math.inf
            return
        service = expected
        if replica.slow_windows:
            service *= _worst_factor(replica.slow_windows, t)
        if flight.flagged:
            # detect-and-recompute: only the flagged partial maps re-execute
            service *= 1.0 + RECOMPUTE_OVERHEAD
        self._run_copy(replica, flight, t, service, expected)
        if failover.policy.hedge and replica.status == "slow":
            twin = next(
                (
                    r
                    for r in self._active
                    if r.status == "up" and r.free_at <= t and r.crashed_at is None
                ),
                None,
            )
            if twin is not None:
                failover.hedges += 1
                expected = self._expected_s(twin, network, len(batch), t)
                service = expected
                if twin.slow_windows:
                    service *= _worst_factor(twin.slow_windows, t)
                twin.inflight = flight
                self._run_copy(twin, flight, t, service, expected)

    def _run_copy(
        self,
        replica: AdaptiveReplica,
        flight: _Flight,
        t: float,
        service: float,
        expected: float,
    ) -> None:
        """Occupy ``replica`` with one copy of ``flight`` and schedule its
        completion."""
        replica.free_at = t + service
        replica.busy_s += service
        replica.batches += 1
        self._push(replica.free_at, _DONE, replica.rid, replica, (flight, expected))

    def _fault(self, replica: AdaptiveReplica, fault: ReplicaFault) -> None:
        """A lossy crash at its instant (slow faults are armed as windows)."""
        if replica.crashed_at is not None:
            return
        replica.crashed_at = fault.time_s
        flight = replica.inflight
        if flight is not None:
            # the copy will never complete (its replica is charged only the
            # service it ran); the replica looks busy until the probe tick
            replica.busy_s -= replica.free_at - fault.time_s
            replica.free_at = math.inf
            faults = self._faults
            k = next(
                k for k, e in enumerate(faults) if e[1] == _DONE and e[4] is replica
            )
            faults[k] = faults[-1]
            faults.pop()
            heapq.heapify(faults)
        self._push(detection_time(fault.time_s), _DETECT, replica.rid, replica, None)

    def _mark(self, replica: AdaptiveReplica, t: float, status: str) -> None:
        """The health checker's belief changes (a no-op when it does not)."""
        if replica.status != status:
            replica.status = status
            self._failover.timeline.append((t, replica.rid, status))

    def _complete(self, replica: AdaptiveReplica, t: float, detail) -> None:
        """One copy of a flight finishes: the first one completes the batch."""
        flight, expected = detail
        failover = self._failover
        replica.inflight = None
        service = t - flight.start_s
        if flight.done:
            failover.hedge_wasted_s += service  # the hedge copy finished first
            return
        flight.done = True
        failover.hedge_wasted_s += flight.crashed_run_s
        replica.completed += len(flight.batch)
        if not replica.quarantined:
            slow = expected > 0 and service >= SLOW_THRESHOLD * expected
            self._mark(replica, t, "slow" if slow else "up")
        verified = replica.verified
        if verified is not None:
            if failover.checking:
                verified.checked_batches += 1
            if flight.corrupted_on == replica.rid:
                verified.corrupted_batches += 1
                if flight.flagged:
                    verified.detected += 1
                    verified.corrected += 1
                    if verified.detected >= DRAIN_THRESHOLD and not verified.drained:
                        # quarantine: the timing is fine, the silicon is not
                        verified.drained_at = t
                        replica.quarantined = True
                        self._mark(replica, t, "slow")
                else:
                    verified.escaped_batches += 1
                    verified.escaped_requests += len(flight.batch)
        self.metrics.record_served(
            flight.batch, flight.start_s, t, replica.rid, flight.network
        )

    def _detect(self, replica: AdaptiveReplica, t: float) -> None:
        """The probe tick that notices a crash: drain the replica's batch."""
        failover = self._failover
        self._mark(replica, t, "down")
        if replica.active:
            self._active.remove(replica)
        flight, replica.inflight = replica.inflight, None
        replica.free_at = math.inf
        if flight is None or flight.lost:
            return
        # the crashed copy's run until its crash is wasted if another copy
        # completes the batch, before or after this probe
        run_s = replica.crashed_at - flight.start_s
        if flight.done:
            failover.hedge_wasted_s += run_s
            return
        if any(r.inflight is flight and r.crashed_at is None for r in self._active):
            flight.crashed_run_s += run_s  # charged when that copy completes
            return
        flight.done = flight.lost = True
        ids = self._stream.rid
        for row in flight.batch:
            rid = int(ids[row]) if ids is not None else row
            attempt = failover.attempts.get(rid, 0) + 1
            failover.attempts[rid] = attempt
            if attempt > MAX_RETRIES:
                self.metrics.record_failure(row, FAILED_RETRIES)
            else:
                failover.retries += 1
                self._push(t + backoff_s(attempt), _RETRY, rid, None, row)

    def _retry(self, row: int, t: float) -> None:
        """Re-offer a lost request (a stream row) after its backoff, behind
        the arrivals due at the same instant."""
        self._offer_through(t)
        stream = self._stream
        shed = self._queue.offer(
            row,
            int(stream.rid[row]) if stream.rid is not None else row,
            stream.networks[stream.network[row]],
            float(stream.arrival[row]),
            float(stream.deadline[row]),
        )
        if shed is not None:
            self.metrics.record_shed(row, shed)

    def busy_overlap(self, start_s: float, end_s: float) -> Dict[int, float]:
        """Per-replica busy seconds clipped to ``[start_s, end_s)``.

        Reads the batch log.  Batches are logged in dispatch order, so
        those starting before ``end_s`` are a prefix; a cursor skips the
        batches that finished before an earlier query's ``start_s``.
        """
        log = self.metrics
        starts, finishes = log.batch_starts, log.batch_finishes
        replicas = log.batch_replicas
        if start_s < self._busy_from:
            self._busy_lo = 0
        lo = self._busy_lo
        while lo < len(finishes) and finishes[lo] <= start_s:
            lo += 1
        self._busy_lo, self._busy_from = lo, start_s
        out: Dict[int, float] = {}
        for b in range(lo, bisect_left(starts, end_s)):
            overlap_lo = max(starts[b], start_s)
            overlap_hi = min(finishes[b], end_s)
            if overlap_hi > overlap_lo:
                rid = replicas[b]
                out[rid] = out.get(rid, 0.0) + (overlap_hi - overlap_lo)
        return out

    def provisioned_overlap(self, start_s: float, end_s: float) -> float:
        """Fleet chip-seconds provisioned within ``[start_s, end_s)``."""
        total = 0.0
        for r in self.replicas:
            lo = max(r.added_s, start_s)
            hi = min(r.retired_s if r.retired_s is not None else end_s, end_s)
            if hi > lo:
                total += hi - lo
        return total

    def finish(
        self,
        duration_s: float,
        extra_meta: Optional[Dict[str, object]] = None,
    ) -> ServingReport:
        """Drain everything outstanding and reduce to a report."""
        check_real(duration_s, "duration", gt=0)
        with phase("serve_adaptive_finish"):
            self.advance_to(math.inf)
        if len(self._queue) and not self._active:
            self._fail_stranded()
        makespan_s = self.metrics.makespan(duration_s)
        # a crash armed past the makespan is moot: no retirement, no event
        self._apply_faults(makespan_s)
        busy_s = sum(r.busy_s for r in self.replicas)
        peak = _peak_fleet_size(self.replicas)
        summary = self.metrics.summary(
            duration_s, peak, busy_s, makespan_s=makespan_s
        )
        chip_s = self.chip_seconds(makespan_s)
        summary["utilization"] = round(busy_s / chip_s, 6) if chip_s else 0.0
        summary["per_replica"] = [
            r.detail(makespan_s) for r in self.replicas
        ]
        if any(r.chip is not None for r in self.replicas):
            # a chip is held from its first co-resident partition's arrival
            # to its last one's retirement — charged once, not per replica
            windows: Dict[str, Tuple[float, float]] = {}
            for r in self.replicas:
                if r.chip is None:
                    continue
                end = r.retired_s if r.retired_s is not None else makespan_s
                lo, hi = windows.get(r.chip, (math.inf, 0.0))
                windows[r.chip] = (min(lo, r.added_s), max(hi, end))
            chip_spans = {
                chip: max(0.0, hi - lo) for chip, (lo, hi) in windows.items()
            }
            summary["per_chip"] = per_chip_rollup(self.replicas, chip_spans)
        summary["fleet"] = {
            "chip_seconds": round(chip_s, 6),
            "peak_replicas": peak,
            "final_replicas": self.n_active(),
            "events": [
                {
                    "time_ms": round(t * 1e3, 6),
                    "event": event,
                    "replica": rid,
                    "detail": detail,
                }
                for t, event, rid, detail in self.fleet_events
            ],
        }
        failover = self._failover
        extra: Dict[str, object] = {"adaptive": True}
        if failover is not None:
            extra["failover"] = failover.policy.describe()
            self._failover_sections(summary)
        summary["engine"] = engine_summary(
            self.config.name,
            self.plan_policy,
            self.batch_policy,
            self.queue_policy,
            self.routing,
            **extra,
        )
        if extra_meta:
            summary["workload"] = dict(sorted(extra_meta.items()))
        return ServingReport(
            summary=summary, metrics=self.metrics, replicas=list(self.replicas)
        )

    def _fail_stranded(self) -> None:
        """Every replica crashed: queued work cannot terminate normally,
        but it must still terminate — offered == completed+shed+failed is
        the zero-silent-drop invariant the chaos runner enforces."""
        queue, metrics = self._queue, self.metrics
        # a failover run's clock has passed every armed fault, slow or not
        armed = self._failover.faults if self._failover is not None else ()
        now = max([self._now] + [f.time_s for f in armed if f.time_s < math.inf])
        for net in queue.networks():
            batch, shed_rows = queue.pop_batch(net, queue.depth(net), now)
            for row, reason in shed_rows:
                metrics.record_shed(row, reason)
            for row in batch:
                metrics.record_failure(row, FAILED_NO_REPLICAS)

    def _failover_sections(self, summary: Dict[str, object]) -> None:
        """A failover run's ``terminated``, ``failover`` and ``integrity``."""
        failover = self._failover
        summary["terminated"] = (
            summary["completed"] + summary["shed"] + summary["failed"]
        )
        summary["failover"] = {
            "policy": failover.policy.to_dict(),
            "faults": [f.to_dict() for f in failover.faults],
            "retries": failover.retries,
            "hedges": failover.hedges,
            "hedge_wasted_ms": round(failover.hedge_wasted_s * 1e3, 6),
            "health_timeline": [
                {"time_ms": round(t * 1e3, 6), "replica": rid, "status": status}
                for t, rid, status in failover.timeline
            ],
            "service_windows": [
                {
                    "start_ms": round(s * 1e3, 6),
                    "end_ms": round(e * 1e3, 6),
                    "multiplier": round(m, 6),
                }
                for s, e, m in failover.service_windows
            ],
        }
        if not failover.integrity:
            return
        ver = failover.verification
        vreps = [r.verified for r in self.replicas]
        corrupted = sum(v.corrupted_batches for v in vreps)
        detected = sum(v.detected for v in vreps)
        summary["integrity"] = {
            "policy": ver.to_dict() if ver is not None else None,
            "sdc_faults": [f.to_dict() for f in failover.sdc_faults],
            "checked_batches": sum(v.checked_batches for v in vreps),
            "corrupted_batches": corrupted,
            "detected": detected,
            "corrected": sum(v.corrected for v in vreps),
            "escaped_batches": sum(v.escaped_batches for v in vreps),
            "escaped_requests": sum(v.escaped_requests for v in vreps),
            "detection_rate": round(detected / corrupted, 6) if corrupted else None,
            "drained_replicas": [v.rid for v in vreps if v.drained],
            "per_replica": [v.detail() for v in vreps],
        }

    def run(
        self,
        requests: Sequence[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]] = None,
    ) -> ServingReport:
        """One-shot convenience: ingest, drain, report (no mid-run actions)."""
        self.ingest(requests)
        return self.finish(duration_s, extra_meta)


class ServingEngine(AdaptiveServingEngine):
    """A fixed fleet: :class:`AdaptiveServingEngine` run once.

    Any fault input (``faults`` to ``verification``) arms a failover run
    where the engine is built (:meth:`~AdaptiveServingEngine.arm_failover`,
    with the default :class:`~repro.serve.failover.FailoverPolicy` unless
    one is given).  :meth:`run` reports a fixed fleet: no ``fleet`` section
    or replica lifetimes, and per-replica and per-chip utilization over the
    makespan (a crashed replica stays provisioned); an armed run adds each
    replica's health ``status`` and ``crashed_ms``.
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
        replica_costers: Optional[Sequence[BatchCoster]] = None,
        chip_map: Optional[Dict[int, str]] = None,
        chip_shares: Optional[Dict[int, float]] = None,
        faults: Sequence[ReplicaFault] = (),
        failover_policy: Optional[FailoverPolicy] = None,
        service_windows: Sequence[Tuple[float, float, float]] = (),
        sdc_faults: Sequence[SDCFault] = (),
        verification: Optional[VerificationPolicy] = None,
    ) -> None:
        super().__init__(
            config,
            batch_policy,
            queue_policy,
            replicas,
            routing,
            plan_policy,
            coster,
            replica_costers,
            chip_map,
            chip_shares,
        )
        if failover_policy or verification or faults or service_windows or sdc_faults:
            self.arm_failover(
                faults,
                failover_policy or FailoverPolicy(),
                service_windows,
                sdc_faults,
                verification,
            )
        self._served = False

    def run(
        self,
        requests: Sequence[Request],
        duration_s: float,
        extra_meta: Optional[Dict[str, object]] = None,
    ) -> ServingReport:
        """Simulate serving ``requests`` and reduce the result to a report.

        ``duration_s`` is the offered-load window (rate denominators);
        the loop itself runs past it until the queue fully drains.  An
        engine serves one run: a second would continue the first.
        """
        if self._served:
            raise ConfigError("a ServingEngine serves one run; build one per run")
        self._served = True
        with phase("serve_run"):
            report = super().run(requests, duration_s, extra_meta)
        summary = report.summary
        del summary["fleet"]
        del summary["engine"]["adaptive"]
        makespan_s = summary["makespan_s"]
        summary["per_replica"] = [
            ReplicaState.detail(r, makespan_s) for r in self.replicas
        ]
        if self._failover is not None:
            for detail, r in zip(summary["per_replica"], self.replicas):
                detail["status"] = r.status
                detail["crashed_ms"] = (
                    round(r.crashed_at * 1e3, 6) if r.crashed_at is not None else None
                )
        if "per_chip" in summary:
            summary["per_chip"] = per_chip_rollup(
                self.replicas, dict.fromkeys(summary["per_chip"], makespan_s)
            )
        return report


def _worst_factor(windows: Sequence[Tuple[float, float, float]], t: float) -> float:
    """The largest factor of the ``(from_s, until_s, factor)`` windows
    containing ``t`` (1.0 outside them all)."""
    worst = 1.0
    for from_s, until_s, factor in windows:
        if from_s <= t < until_s:
            worst = max(worst, factor)
    return worst


def _peak_fleet_size(replicas: Sequence[AdaptiveReplica]) -> int:
    """Max simultaneously-provisioned replicas over the run."""
    events: List[Tuple[float, int]] = []
    for r in replicas:
        events.append((r.added_s, 1))
        if r.retired_s is not None:
            events.append((r.retired_s, -1))
    # retirements before additions at the same instant: a drain+add swap
    # at one epoch boundary holds peak-1 chips, not peak+1
    events.sort(key=lambda e: (e[0], e[1]))
    peak = count = 0
    for _, delta in events:
        count += delta
        peak = max(peak, count)
    return peak
