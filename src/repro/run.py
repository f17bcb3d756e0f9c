"""The run: every observability sink and the fault injector, in one object.

A run is observed through five parts, each one object:

- ``counters`` — the sim-core :class:`~repro.sim.profile.SimCounters`;
- ``metrics`` — the labeled :class:`~repro.obs.metrics.MetricsRegistry`;
- ``tracer`` — the virtual-time :class:`~repro.obs.trace.Tracer`;
- ``recorder`` — the :class:`~repro.obs.timeseries.TimeSeriesRecorder`;
- ``faults`` — the :class:`~repro.faults.injector.FaultInjector`.

Instrumentation sites read the current part through the one process-wide
:data:`run` at call time (``run.metrics.enabled``, ``run.faults.active``),
never binding a part at import time, so a session can install a whole
fresh set.  A part that is off still costs one predicate check.  Objects
that live for one run (an ``Environment``, a fleet shard engine) bind the
part they need once, at construction.

A session (:func:`observing`) and each shard cell build a fresh
:class:`Run` from an :class:`ObsConfig` and :meth:`Run.swap` it in; on
the way out the saved part *objects* go back, untouched — a tracer still
attached to a live environment stays attached, an armed plan stays
armed.  The parts are fixed slots, so no lookup of a part can miss.

This module imports only the modules that define the five part classes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from repro.faults.injector import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import Tracer
from repro.sim.profile import SimCounters


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """Which observability layers a run records: a whole CLI verb through
    :func:`observing`, or each cell of a shard batch (whose outputs the
    merge folds into the parent's parts)."""

    metrics: bool = False
    trace: bool = False
    trace_wall: bool = False
    #: time-series sampling interval (virtual seconds) or None = off;
    #: cells sample at this interval, and the parent merges the sampled
    #: rings in cell-index order
    timeseries: float | None = None


#: the five parts, in the order :meth:`Run.swap` exchanges them
PARTS = ("counters", "metrics", "tracer", "recorder", "faults")


class Run:
    """One run's parts plus the :class:`ObsConfig` that armed them."""

    __slots__ = PARTS + ("obs",)

    def __init__(self, obs: ObsConfig | None = None) -> None:
        """Fresh parts armed as ``obs`` selects.  The profile counters
        always count in a session; ``obs=None`` builds the idle run of a
        freshly imported process, where nothing records."""
        self.obs = ObsConfig() if obs is None else obs
        self.counters = SimCounters()
        self.counters.enabled = obs is not None
        self.metrics = MetricsRegistry()
        self.metrics.enabled = self.obs.metrics
        self.tracer = Tracer()
        self.tracer.enabled = self.obs.trace
        self.tracer.wall_clock = self.obs.trace_wall
        self.recorder = TimeSeriesRecorder()
        if self.obs.timeseries is not None:
            self.recorder.enable(interval=self.obs.timeseries)
        self.faults = FaultInjector(self.metrics, self.tracer)

    def swap(self, other: "Run") -> "Run":
        """Exchange every part and the config with ``other``.

        Returns ``other``, which now holds what this run held, so a
        second ``swap`` with it puts everything back."""
        for name in Run.__slots__:
            mine = getattr(self, name)
            setattr(self, name, getattr(other, name))
            setattr(other, name, mine)
        return other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Run {self.obs}>"


@contextlib.contextmanager
def observing(obs: ObsConfig) -> _t.Iterator[Run]:
    """Run the body on a fresh run armed as ``obs`` selects, then put the
    previous parts back."""
    saved = run.swap(Run(obs))
    try:
        yield run
    finally:
        run.swap(saved)


#: The process-wide run every instrumentation site reads.
run = Run()
