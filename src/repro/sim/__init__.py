"""Discrete-event simulation core.

Every timed behaviour in this repository — filesystem IO, registry
transfers, scheduler decisions, container start-up — runs on this small
generator-based discrete-event simulator.  The design follows the classic
process-interaction style (as popularized by SimPy): simulation processes
are Python generators that ``yield`` events; the :class:`Environment`
advances virtual time and resumes processes when their events trigger.

A process waits in one of four ways: it yields an :class:`Event`
(another :class:`Process`, an ``env.timeout(d)`` that others share); it
sleeps, for a delay (``yield env.sleep(d)``) or until an absolute time
(``yield env.sleep_until(t)``); it parks on a :class:`Signal` until a
producer fires it or a deadline passes; or it waits for a
:class:`Resource` slot (``yield res.request()``).  A sleep, a park and
a grant are each one queue record that an interrupt (or, for a park, a
fire) cancels in place.  A :class:`Bell` runs a scheduler's coalescing
pass loop on records of its own.

The simulator is deterministic: given the same seed and the same process
creation order, a simulation produces bit-identical timelines, which the
benchmark harness relies on for reproducible "shape" comparisons.
"""

from repro.sim.events import Event, Interrupt, SimulationError
from repro.sim.environment import Environment, Process
from repro.sim.resources import Resource
from repro.sim.rng import DeterministicRNG
from repro.sim.signal import Bell, Signal, next_tick

__all__ = [
    "Bell",
    "DeterministicRNG",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Signal",
    "SimulationError",
    "next_tick",
]
