"""Discrete-event simulation core.

Every timed behaviour in this repository — filesystem IO, registry
transfers, scheduler decisions, container start-up — runs on this small
generator-based discrete-event simulator.  The design follows the classic
process-interaction style (as popularized by SimPy): simulation processes
are Python generators that ``yield`` events; the :class:`Environment`
advances virtual time and resumes processes when their events trigger.

The simulator is deterministic: given the same seed and the same process
creation order, a simulation produces bit-identical timelines, which the
benchmark harness relies on for reproducible "shape" comparisons.
"""

from repro.sim.events import AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout
from repro.sim.environment import Environment, Process
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import DeterministicRNG
from repro.sim.signal import Bell, Signal, next_tick

__all__ = [
    "AllOf",
    "AnyOf",
    "Bell",
    "Container",
    "DeterministicRNG",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Signal",
    "SimulationError",
    "Store",
    "Timeout",
    "next_tick",
]
