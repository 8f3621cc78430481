"""Simulation: run records, functional (numerical) execution, machine model."""

from repro.sim.machine import Machine

__all__ = ["Machine"]
