"""Fleet-scale what-if capacity planning (``repro capacity``).

The preceding subsystems each answer one operational question — how to
shard (:mod:`repro.cluster`), how to co-locate tenants
(:mod:`repro.tenancy`), how to survive faults (:mod:`repro.resilience`),
when to scale (:mod:`repro.control`).  This package answers the question
that comes *before* all of them: **what should the fleet be?**  Given a
traffic forecast with per-tenant SLOs, a chip-level fault model and an
ABFT on/off switch, the planner enumerates a deterministic grid of
deployments (geometry x fleet size x replication/sharding/partitioning x
batching), prunes it with analytic capacity bounds, simulates the
survivors healthy and under faults through the shared serving machinery,
and ranks them by cost per million within-SLO requests:

- :mod:`repro.capacity.forecast` — :class:`ForecastSpec`, the picklable
  demand model (steady or diurnal mixed-tenant traffic);
- :mod:`repro.capacity.grid` — :class:`Candidate` / :class:`CandidateGrid`,
  the deterministic search space;
- :mod:`repro.capacity.bounds` — the optimistic capacity/attainment
  bounds whose one-sidedness makes pruning safe;
- :mod:`repro.capacity.planner` — :func:`plan_capacity`, the three-phase
  search, plus the byte-stable JSON and text reports.

See ``docs/capacity.md`` for the search space, the pruning proof
obligation, and the report schema.
"""

from repro.capacity.forecast import ForecastSpec
from repro.capacity.grid import CandidateGrid
from repro.capacity.planner import (
    FaultModel,
    plan_capacity,
    render_report,
    report_to_json,
)

__all__ = [
    "CandidateGrid",
    "FaultModel",
    "ForecastSpec",
    "plan_capacity",
    "render_report",
    "report_to_json",
]
