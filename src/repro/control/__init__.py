"""Closed-loop autoscaling control plane for the serving fleet
(``repro autoscale``).

Every serving-stack knob used to be frozen for a whole run: replica
count, batcher max-batch/max-wait, and drain/repair were fixed at
construction.  This package drives them at runtime — the same adaptive
insight as the paper's Algorithm 2 (pick the parallelization that fits
the *current* layer), applied one level up: pick the fleet configuration
that fits the *current* traffic window.

The loop runs at simulated-time epoch boundaries, split the classic way:

- :mod:`repro.control.telemetry` — the **detector**: sliding-window
  p95/p99-vs-SLO, shed rate, queue depth, per-replica utilization and
  observed/expected service ratios, windowed exactly (no double counting
  across boundaries) and byte-stable;
- :mod:`repro.control.policy` — the **planner**: deterministic hysteresis
  bands with cooldowns; demand-sizes the fleet from `plan_batch`-costed
  per-replica capacity (through the schedule cache), retunes
  max-batch/max-wait against the tightest SLO, and triggers drain/repair
  from fail-slow health ratios;
- :mod:`repro.control.actuator` — the **actuator**: applies decisions to
  a live :class:`~repro.serve.engine.AdaptiveServingEngine` — runtime
  add/drain of replicas, live batcher reconfiguration;
- :mod:`repro.control.verifier` — the **verifier**: confirms every action
  took effect within a deadline and freezes scaling when it detects
  oscillation;
- :mod:`repro.control.healing` —
  :class:`~repro.control.healing.SelfHealingControlLoop` stepping all four
  per epoch; with :meth:`~repro.control.healing.HealingPolicy.disabled`
  it is the plain autoscaler ``repro autoscale`` runs;
- :mod:`repro.control.loop` — the run's
  :class:`~repro.control.loop.ControlReport`, plus the static
  peak-/mean-provisioned baselines
  (:func:`~repro.control.loop.run_static`) the autoscaler is judged
  against on diurnal flash-crowd traces in ``benchmarks/bench_control.py``.

The same loop heals itself when its policy says so:

- :mod:`repro.control.chaos` — fault injection for the control plane
  itself: tampered telemetry windows (loss/stale/duplicate), actuation
  that fails or partially applies, controller crash-restart, and the
  safe-mode controller that freezes actuation when control-plane faults
  storm;
- :class:`~repro.control.healing.HealingPolicy` arms fleet probes,
  repair planning (replace crashed replicas, replan degraded geometries
  through Algorithm 2, placement-aware spares), recovery deadlines with
  rollback to last-known-good, and journal-based restart after
  controller crashes;
- :mod:`repro.control.chaos_scenarios` — the chaos-under-autoscaling
  suite (``repro chaos --control``): every scenario runs four arms on
  identical seeded traffic and enforces named invariants.

See ``docs/autoscaling.md`` for the loop architecture and
``docs/chaos_control.md`` for the self-healing design.
"""

from repro.control.healing import HealingPolicy, SelfHealingControlLoop
from repro.control.loop import run_static, static_fleet_sizes
from repro.control.policy import AutoscalePolicy

__all__ = [
    "AutoscalePolicy",
    "HealingPolicy",
    "SelfHealingControlLoop",
    "run_static",
    "static_fleet_sizes",
]
