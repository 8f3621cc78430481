"""Fault injection, degraded-mode replanning, and failover (``repro chaos``).

The paper's accelerator is evaluated healthy; this package asks what the
stack does when hardware misbehaves, reusing the planning machinery
instead of inventing new models:

- :mod:`repro.resilience.faults` — seeded, deterministic fault schedules:
  replica fail-stop/fail-slow, inter-chip link degradation windows, PE
  row/column masks, single-bit-flip families for the functional datapath
  (realised by :mod:`repro.integrity`), and serving-tier silent-data-
  corruption windows;
- :mod:`repro.resilience.degrade` — a PE mask shrinks the effective
  ``Tin x Tout`` array; Algorithm 2 and the planner re-run at the new
  geometry through the schedule cache, reporting scheme flips and the
  latency bill;
- :mod:`repro.resilience.repair` — a pipelined deployment that loses a
  chip re-runs the DP bottleneck balancer over the survivors, with the
  weight re-shipment charged through the link model;
- :mod:`repro.resilience.scenarios` — named chaos scenarios pairing a
  fault schedule with a serving workload: the same seeded requests run
  healthy and faulted as failover runs of :class:`~repro.serve.engine.ServingEngine`,
  reduced to availability, goodput-under-fault, MTTR and latency ratios
  as byte-stable JSON.

See ``docs/resilience.md`` for the fault taxonomy and the rollup glossary.
"""

from repro.resilience.degrade import (
    DegradeReport,
    SchemeFlip,
    degraded_config,
    geometry_flips,
    replan_degraded,
)
from repro.resilience.faults import (
    BITFLIP_SITES,
    BitFlipFault,
    FaultSchedule,
    LinkFault,
    MaskFault,
    PEMask,
    ReplicaFault,
    SDCFault,
    flapping_link,
    seeded_bitflips,
)
from repro.resilience.repair import RepairPlan, repair_pipeline
from repro.resilience.scenarios import (
    INVARIANT_NAMES,
    SCENARIO_NAMES,
    ChaosScenario,
    build_scenario,
    run_scenario,
)

__all__ = [
    "BITFLIP_SITES",
    "BitFlipFault",
    "ChaosScenario",
    "DegradeReport",
    "FaultSchedule",
    "INVARIANT_NAMES",
    "LinkFault",
    "MaskFault",
    "PEMask",
    "RepairPlan",
    "ReplicaFault",
    "SCENARIO_NAMES",
    "SDCFault",
    "SchemeFlip",
    "build_scenario",
    "degraded_config",
    "geometry_flips",
    "flapping_link",
    "repair_pipeline",
    "replan_degraded",
    "run_scenario",
    "seeded_bitflips",
]
