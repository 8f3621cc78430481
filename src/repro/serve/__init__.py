"""Multi-tenant inference serving simulator (``repro serve``).

The paper evaluates single forward passes; a deployed accelerator instead
sees an open-loop stream of requests from many tenants, and its scheduling
decisions are stressed by queueing, batching and overload — exactly the
regime where batch-1 FC layers being DMA-bound (Sec. 5) turns into tail
latency.  This package layers a discrete-event serving tier on top of the
existing planning machinery:

- :mod:`repro.serve.workload` — seeded Poisson/bursty/trace request
  generators over a mix of zoo networks, each emitting one columnar
  :class:`~repro.serve.workload.Arrivals` stream;
- :mod:`repro.serve.queue` — bounded admission queue with FIFO/EDF
  ordering and age/deadline load shedding;
- :mod:`repro.serve.batcher` — max-batch + max-wait dynamic batch
  formation, costed through :func:`repro.adaptive.batch.plan_batch` (and
  therefore through the schedule cache);
- :mod:`repro.serve.engine` — the event loop over one or more accelerator
  replicas with round-robin or least-loaded routing, which also serves
  under lossy replica faults;
- :mod:`repro.serve.metrics` — per-tenant/per-network latency percentiles,
  queue-wait vs. compute breakdown, goodput, shed rate and utilization,
  exportable as byte-stable JSON;
- :mod:`repro.serve.failover` — the fault-aware tier's records: replica
  fail-stop / fail-slow faults, the health checker's probe period and
  slow threshold, retry with capped exponential backoff, and the hedging
  policy (driven by :mod:`repro.resilience`);
- :mod:`repro.serve.verified` — verified inference: per-batch ABFT checks
  (:class:`~repro.serve.verified.VerificationPolicy`), silent-data-
  corruption windows (:class:`~repro.serve.verified.SDCFault`), and
  per-replica detected/corrected/escaped bookkeeping
  (:class:`~repro.serve.verified.VerifiedReplica`);
- :mod:`repro.serve.candidates` — the candidate-evaluation path (build
  replica groups → serve the common workload → rank) behind the
  ``repro.capacity`` planner; ``tenancy.compare_fleets`` ranks through it.

See ``docs/serving.md`` for the queueing model and the metrics glossary.
"""

from repro.serve.batcher import BatchCoster, BatchPolicy
from repro.serve.candidates import (
    build_replica_set,
    evaluate_candidate,
    rank_candidates,
)
from repro.serve.engine import ServingEngine
from repro.serve.metrics import render_summary
from repro.serve.queue import QueuePolicy
from repro.serve.workload import (
    bursty_arrivals,
    diurnal_arrivals,
    parse_mix,
    poisson_arrivals,
    trace_arrivals,
)

__all__ = [
    "BatchCoster",
    "BatchPolicy",
    "QueuePolicy",
    "ServingEngine",
    "build_replica_set",
    "bursty_arrivals",
    "diurnal_arrivals",
    "evaluate_candidate",
    "parse_mix",
    "poisson_arrivals",
    "rank_candidates",
    "render_summary",
    "trace_arrivals",
]
