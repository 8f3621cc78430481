"""Outside-in layer tracing: time each layer by wrapping its public entry points.

Nothing in ``src/`` knows it is being traced.  :class:`Tracer` replaces the
functions and methods named by a list of :class:`Target` records with timing
wrappers, keeps a stack of open spans, and on the way out charges every span
to its ``(layer, parent layer)`` pair:

* ``calls`` — entries into the layer from a different layer (a call that is
  already inside the same layer, such as ``run`` → ``advance_to`` on one
  engine, is part of the open span and not counted again);
* ``total_s`` — inclusive time;
* ``self_s`` — inclusive time minus the time of wrapped child spans.

A function imported by name is wrapped where its caller resolves it, which
is why several targets name the *calling* module (``repro.serve.batcher``
for ``plan_batch``).  Methods are wrapped on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Target", "Tracer", "TARGETS"]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is ``"module"`` or ``"module:Class"``."""

    layer: str
    owner: str
    attr: str
    #: keep the receiver (``self``) of every call, for layer counters that
    #: live on the objects themselves (memo counters, batch sizes)
    collect: bool = False


def _targets(layer: str, owner: str, *attrs: str, collect: bool = False) -> List[Target]:
    return [Target(layer, owner, attr, collect) for attr in attrs]


_SCHEME_CLASSES = (
    "repro.schemes.ideal:IdealScheme",
    "repro.schemes.inter:InterKernelScheme",
    "repro.schemes.inter_improved:ImprovedInterKernelScheme",
    "repro.schemes.intra:IntraKernelScheme",
    "repro.schemes.partition:KernelPartitionScheme",
    "repro.schemes.pe2d:Pe2dScheme",
)

#: the layer map, outermost first (stack order: workload → engine → queue /
#: batcher → planner → search → cache → schemes; control wraps the engine)
TARGETS: Tuple[Target, ...] = tuple(
    _targets(
        "serve.workload",
        "repro.control.chaos_scenarios",
        "poisson_arrivals",
        "diurnal_arrivals",
    )
    + _targets("control.healing", "repro.control.healing:SelfHealingControlLoop", "run")
    + _targets("control.healing", "repro.control.healing", "probe_fleet")
    + _targets("control.telemetry", "repro.control.telemetry:Detector", "observe")
    + _targets("control.telemetry", "repro.control.chaos:TelemetryChannel", "deliver")
    + _targets("control.policy", "repro.control.policy:Planner", "plan")
    + _targets(
        "control.policy",
        "repro.control.healing:HealingPlanner",
        "plan_epoch",
        "plan_repairs",
    )
    + _targets("control.actuator", "repro.control.chaos:FlakyActuator", "apply")
    + _targets("control.actuator", "repro.control.actuator:Actuator", "apply")
    + _targets("control.verifier", "repro.control.verifier:Verifier", "check", "register")
    + _targets("serve.engine", "repro.serve.engine:ServingEngine", "run")
    + _targets(
        "serve.engine",
        "repro.serve.engine:AdaptiveServingEngine",
        "run",
        "ingest",
        "advance_to",
        "finish",
        collect=True,
    )
    + _targets(
        "serve.queue",
        "repro.serve.queue:AdmissionQueue",
        "offer",
        "pop_batch",
        "oldest_arrival",
        "networks",
        "depth",
    )
    + _targets(
        "serve.batcher",
        "repro.serve.batcher:BatchCoster",
        "batch_seconds",
        "batch_run",
        collect=True,
    )
    + _targets("serve.metrics", "repro.serve.metrics:MetricsCollector", "summary")
    + _targets("adaptive.planner", "repro.serve.batcher", "plan_batch")
    + _targets("adaptive.planner", "repro.adaptive.planner", "plan_network")
    + _targets("adaptive.search", "repro.adaptive.planner", "select_scheme")
    + _targets(
        "adaptive.search",
        "repro.adaptive.search",
        "best_scheme_name_for_layer",
        "best_scheme_for_layer",
    )
    + _targets("perf.cache", "repro.perf.cache:ScheduleCache", "get_or_schedule")
    + _targets("schemes", "repro.schemes.auxiliary", "schedule_auxiliary")
    + [t for owner in _SCHEME_CLASSES for t in _targets("schemes", owner, "schedule")]
)


def _resolve(owner: str) -> object:
    module_name, _, class_name = owner.partition(":")
    obj: object = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name)
    return obj


class Tracer:
    """Span stack plus per-(layer, parent) aggregates, kept in memory."""

    def __init__(
        self,
        targets: Sequence[Target] = TARGETS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.targets = tuple(targets)
        self.clock = clock
        #: (layer, parent layer or None) -> [calls, total_s, self_s]
        self.spans: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: layer -> {id(receiver): receiver} for ``collect`` targets
        self.receivers: Dict[str, Dict[int, object]] = {}
        self._stack: List[List[object]] = []
        self._saved: List[Tuple[object, str, object, bool]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer = target.layer
        stack = self._stack
        spans = self.spans
        clock = self.clock
        receivers = self.receivers.setdefault(layer, {}) if target.collect else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if receivers is not None and args:
                receivers.setdefault(id(args[0]), args[0])
            if parent is not None and parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (layer, parent[0] if parent is not None else None)
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]

        return traced

    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            owner = _resolve(target.owner)
            own = target.attr in vars(owner)
            original = getattr(owner, target.attr)
            self._saved.append((owner, target.attr, original, own))
            setattr(owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        """Restore every original, last wrapped first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "total_s", "self_s"}}`` summed over parents."""
        out = {
            layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for layer in dict.fromkeys(t.layer for t in self.targets)
        }
        for (layer, _parent), (calls, total, self_s) in self.spans.items():
            entry = out[layer]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += self_s
        return out

    def span_table(self) -> List[Dict[str, object]]:
        """One row per (layer, parent), sorted by self time, largest first."""
        rows = [
            {
                "layer": layer,
                "parent": parent,
                "calls": calls,
                "total_s": total,
                "self_s": self_s,
            }
            for (layer, parent), (calls, total, self_s) in self.spans.items()
        ]
        rows.sort(key=lambda r: (-r["self_s"], r["layer"], str(r["parent"])))
        return rows
