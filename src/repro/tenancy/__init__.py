"""Multi-tenant chip partitioning and heterogeneous-fleet placement.

The paper's question — one accelerator, many network shapes — has a
deployment-scale sibling: one *fleet*, many tenants.  This package
answers it with the planning machinery the repo already has:

- :mod:`repro.tenancy.partition` — carve one chip's PE array and buffer
  budget into named sub-accelerators; each partition is a first-class
  :class:`~repro.arch.config.AcceleratorConfig` re-planned through
  Algorithm 2 and the schedule cache (distinct geometry, distinct cache
  keys), reusing the degraded-geometry path from
  :mod:`repro.resilience.degrade`;
- :mod:`repro.tenancy.fleet` — heterogeneous fleet compositions (big,
  small, degraded, partitioned chips) flattened to schedulable slots,
  with a cost model normalising fleets for equal-budget comparisons;
- :mod:`repro.tenancy.placement` — a deterministic cost-aware global
  placer (greedy seeding + bounded local search) pinning tenants to
  slots, with fit judged by the planner's own batch latency model;
- :mod:`repro.tenancy.serving` — per-slot serving lanes merged into one
  fleet rollup with shared-chip accounting (a chip's co-resident
  partitions are charged once), plus the two headline comparisons:
  partitioned co-residency vs time-multiplexing one chip, and
  heterogeneous vs homogeneous fleets at equal cost.

See ``docs/tenancy.md`` for the model and the rollup glossary, and
``repro tenancy`` for the CLI surface.
"""

from repro.tenancy.fleet import ChipSpec, FleetSpec, parse_fleet
from repro.tenancy.partition import (
    PartitionSpec,
    even_partitions,
    full_chip_spec,
    partition_chip,
)
from repro.tenancy.placement import (
    TenantDemand,
    demand_from_tenants,
    place_tenants,
)
from repro.tenancy.serving import (
    compare_fleets,
    compare_partitioned,
    serve_placement,
    worst_tenant_p95,
)

__all__ = [
    "ChipSpec",
    "FleetSpec",
    "PartitionSpec",
    "TenantDemand",
    "compare_fleets",
    "compare_partitioned",
    "demand_from_tenants",
    "even_partitions",
    "full_chip_spec",
    "parse_fleet",
    "partition_chip",
    "place_tenants",
    "serve_placement",
    "worst_tenant_p95",
]
