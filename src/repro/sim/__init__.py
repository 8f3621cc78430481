"""Simulation: run records, functional (numerical) execution, machine model."""

from repro.sim.backend import set_backend, use_backend
from repro.sim.machine import Machine

__all__ = [
    "set_backend",
    "use_backend",
    "Machine",
]
