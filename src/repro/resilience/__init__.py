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

from repro.resilience.degrade import degraded_config
from repro.resilience.faults import PEMask
from repro.resilience.scenarios import SCENARIO_NAMES, build_scenario, run_scenario

__all__ = [
    "PEMask",
    "SCENARIO_NAMES",
    "build_scenario",
    "degraded_config",
    "run_scenario",
]
