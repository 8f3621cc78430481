"""Multi-accelerator sharding (``repro shard``).

C-Brain's kernel partitioning keeps every PE of *one* chip aligned and
busy; this package lifts the same resource-partitioning idea to chip
granularity, in the spirit of Shen et al. (multiple convolutional
processors sized to layer subsets) and Jung et al. (stage partitioning to
shape link/memory traffic):

- :mod:`repro.cluster.link` — inter-chip link model: bandwidth GB/s plus a
  fixed per-transfer hop latency, costing activation handoffs by bytes;
- :mod:`repro.cluster.pipeline` — contiguous layer-pipeline partitioning
  with an optimal DP bottleneck balancer (link cost included) and the
  naive even-split baseline;
- :mod:`repro.cluster.dataparallel` — batch-sharded replication with
  scatter/gather over the same link model;
- :mod:`repro.cluster.rollup` — steady-state throughput, fill/drain
  latency, per-stage utilization and link occupancy as byte-stable JSON;
- :mod:`repro.cluster.replica` — :class:`PipelinedReplica`, a
  BatchCoster-compatible adapter so :mod:`repro.serve` can route batches
  onto sharded deployments (1×big-chip vs N×small-chip under one SLO
  workload).

See ``docs/sharding.md`` for the cost model and a CLI walkthrough.
"""

from repro.cluster.dataparallel import plan_data_parallel
from repro.cluster.link import LinkSpec
from repro.cluster.pipeline import plan_pipeline
from repro.cluster.replica import PipelinedReplica
from repro.cluster.rollup import rollup, rollup_data_parallel, rollup_pipeline

__all__ = [
    "LinkSpec",
    "PipelinedReplica",
    "plan_data_parallel",
    "plan_pipeline",
    "rollup",
    "rollup_data_parallel",
    "rollup_pipeline",
]
