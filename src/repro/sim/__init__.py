"""Simulation: run records, functional (numerical) execution, machine model."""

from repro.sim.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.sim.event import PipelineTimeline, simulate_layer, simulate_run
from repro.sim.machine import Machine, MachineResult, RegionStats
from repro.sim.trace import NetworkRun

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "PipelineTimeline",
    "simulate_layer",
    "simulate_run",
    "Machine",
    "MachineResult",
    "RegionStats",
    "NetworkRun",
]
