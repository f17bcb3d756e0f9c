"""Virtual-time time-series sampling over the metrics registry.

:mod:`repro.obs.metrics` answers "how much, in total?" — point-in-time
counters read once after the run.  Site operators asking "did registry
pull latency degrade *during* the outage window?" need the axis the
registry deliberately drops: virtual time.  This module adds it without
touching the per-event hot path:

- a :class:`TimeSeriesRecorder` holds a ring buffer of
  ``(t, value)`` points per ``name{label=}`` series;
- a **sampler** visits the recorder at a fixed virtual-time interval and
  turns the registry's current state into points — gauges verbatim,
  counters as **rates** (``name.rate``, delta over the sampling gap) and
  histograms as running quantiles (``name.p50`` / ``name.p99`` via
  :meth:`~repro.obs.metrics.Histogram.quantile`);
- engines register **probes** — callbacks invoked at each sample tick —
  to publish state the registry never sees (queue depths, live slots).

Sampling is driven two ways, matching the two execution styles in the
tree.  Event-dense engines (the fleet pump) call :meth:`sample_due`
inline once per epoch — one predicate check and a float compare when
disabled or not yet due.  Process-based scenarios install a dedicated
simulation process via :func:`install_sampler` that wakes at each grid
boundary and **self-terminates when it is the only pending work**, so
``env.run()`` drains and ``env.run(until=...)`` deadlines behave exactly
as they would without it.

Sample timestamps are snapped to the grid (``k * interval`` for the
grid index ``k`` at or below ``now``), so a cell sampled inline at
irregular epoch times and a cell sampled by the process land points on
the same time axis.  Like the registry, the recorder is **one per
run** (``repro.run.run.recorder``), **off by default, and
shard-mergeable**: :meth:`capture_state` /
:meth:`absorb` mirror the registry's contract, concatenating per-series
points in the order cells are merged (deterministic cell-index order),
keeping ``--jobs N`` byte-identical to serial.
"""

from __future__ import annotations

import json
import math
import typing as _t
from collections import deque

from repro.obs.metrics import (
    MetricsRegistry,
    _label_key,
    _LabelKey,
    _om_labels,
    _om_name,
    _om_value,
    _SeriesKey,
    format_series,
    series_name_problems,
)
from repro.obs.shape import MapOf, check_file, shape_problems

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

#: default sampling interval (virtual seconds)
DEFAULT_INTERVAL = 5.0

#: default ring-buffer capacity (points per series)
DEFAULT_CAPACITY = 4096

#: schema tag for the JSON export
TIMESERIES_SCHEMA = "repro-timeseries/1"

#: histogram quantiles sampled as ``name.p50`` / ``name.p99`` series
_QUANTILES: tuple[tuple[str, float], ...] = ((".p50", 0.5), (".p99", 0.99))


class TimeSeriesRecorder:
    """Ring-buffered ``(t, value)`` points per labeled series."""

    __slots__ = (
        "enabled",
        "interval",
        "capacity",
        "samples",
        "_points",
        "_last_counters",
        "_last_t",
        "_next_due",
        "_probes",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.interval = DEFAULT_INTERVAL
        self.capacity = DEFAULT_CAPACITY
        #: total sample ticks taken (merged additively across shards)
        self.samples = 0
        self._points: dict[_SeriesKey, deque[tuple[float, float]]] = {}
        #: counter values at the previous tick, for rate computation
        self._last_counters: dict[_SeriesKey, float] = {}
        self._last_t: float | None = None
        self._next_due = 0.0
        self._probes: list[_t.Callable[[float], None]] = []

    # -- lifecycle ----------------------------------------------------------
    def enable(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        reset: bool = True,
    ) -> "TimeSeriesRecorder":
        if not 0 < interval < math.inf:
            raise ValueError(f"sample interval must be positive and finite, got {interval}")
        if reset:
            self.reset()
        self.enabled = True
        self.interval = float(interval)
        self.capacity = int(capacity)
        return self

    def disable(self) -> "TimeSeriesRecorder":
        self.enabled = False
        return self

    def reset(self) -> None:
        self.samples = 0
        self._points.clear()
        self._last_counters.clear()
        self._last_t = None
        self._next_due = 0.0
        self._probes.clear()

    # -- probes --------------------------------------------------------------
    def add_probe(self, fn: _t.Callable[[float], None]) -> None:
        """Register a callback invoked with the grid timestamp at every
        sample tick (engines publish queue depths, live counts...).
        Probes are cleared by :meth:`reset` — they hold references to the
        engines that registered them, which must not outlive the run."""
        self._probes.append(fn)

    # -- point recording -----------------------------------------------------
    def series_key(self, name: str, **labels: object) -> _SeriesKey:
        """Intern a series identity (same storage key as the registry)."""
        return (name, _label_key(labels))

    def record(self, name: str, t: float, value: float, **labels: object) -> None:
        """Append one point; creates the series ring buffer on first use."""
        self.record_series((name, _label_key(labels)), t, value)

    def record_series(self, key: _SeriesKey, t: float, value: float) -> None:
        points = self._points.get(key)
        if points is None:
            points = self._points[key] = deque(maxlen=self.capacity)
        points.append((t, float(value)))

    # -- sampling ------------------------------------------------------------
    def due(self, now: float) -> bool:
        """One predicate + one compare — the inline hot-path gate."""
        return self.enabled and now >= self._next_due

    def sample_due(self, now: float, registry: MetricsRegistry | None = None) -> float | None:
        """Sample iff ``now`` has crossed the next grid boundary.

        Returns the grid timestamp used, or ``None`` when disabled / not
        yet due.  This is the inline driver: event-dense engines call it
        once per batch and pay ``due()`` when nothing happens.
        """
        if not self.enabled or now < self._next_due:
            return None
        return self.sample(now, registry)

    def grid_index(self, now: float) -> int:
        """The grid index ``k`` with ``k*interval <= now <
        (k+1)*interval``: ``floor(now/interval)`` corrected where the
        quotient rounds across an integer (``4.3/0.1`` is
        ``42.99999999999999``, but ``43*0.1`` is ``4.3``)."""
        interval = self.interval
        k = math.floor(now / interval)
        if (k + 1) * interval <= now:
            k += 1
        elif k * interval > now:
            k -= 1
        return k

    def sample(self, now: float, registry: MetricsRegistry | None = None) -> float:
        """Take one sample tick, stamped at the grid point at or below
        ``now``; the next is due at the grid point after it."""
        interval = self.interval
        k = self.grid_index(now)
        t = k * interval
        for probe in self._probes:
            probe(t)
        if registry is not None:
            self._sample_registry(t, registry)
        self._last_t = t
        self._next_due = (k + 1) * interval
        self.samples += 1
        return t

    def _sample_registry(self, t: float, registry: MetricsRegistry) -> None:
        # Counters become rate series: delta since the previous tick over
        # the actual gap (ticks can skip grid points when nothing ran).
        last_t = self._last_t
        dt = (t - last_t) if last_t is not None and t > last_t else self.interval
        last = self._last_counters
        for key, value in registry._counters.items():
            prev = last.get(key, 0.0)
            if value != prev or key in last:
                self.record_series((key[0] + ".rate", key[1]), t, (value - prev) / dt)
            last[key] = value
        for key, value in registry._gauges.items():
            self.record_series(key, t, value)
        for key, hist in registry._histograms.items():
            if hist.count:
                for suffix, q in _QUANTILES:
                    self.record_series((key[0] + suffix, key[1]), t, hist.quantile(q))

    # -- readers -------------------------------------------------------------
    def points(self, name: str, **labels: object) -> list[tuple[float, float]]:
        return list(self._points.get((name, _label_key(labels)), ()))

    def series(self, prefix: str = "") -> list[str]:
        out = [format_series(name, labels) for name, labels in self._points]
        return sorted(s for s in out if s.startswith(prefix))

    def match(self, name: str, labels: _LabelKey = ()) -> list[_SeriesKey]:
        """Every stored series with this name whose labels are a superset
        of ``labels`` — the SLO engine's selector primitive."""
        want = set(labels)
        return sorted(
            key
            for key in self._points
            if key[0] == name and want.issubset(key[1])
        )

    def snapshot(self) -> dict[str, list[list[float]]]:
        """``{formatted_series: [[t, value], ...]}`` in stored order."""
        return {
            format_series(name, labels): [[t, v] for t, v in pts]
            for (name, labels), pts in sorted(self._points.items())
        }

    def document(self) -> dict[str, object]:
        """The JSON-export document (schema-tagged, deterministic)."""
        return {
            "schema": TIMESERIES_SCHEMA,
            "interval": self.interval,
            "samples": self.samples,
            "series": self.snapshot(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.document(), indent=indent, sort_keys=True)

    def to_openmetrics(self) -> str:
        """OpenMetrics-style exposition of the *latest* point per series,
        with the sample's virtual timestamp in the timestamp column."""
        lines: list[str] = []
        for (name, labels), pts in sorted(self._points.items()):
            if not pts:  # pragma: no cover - rings never stay empty
                continue
            t, v = pts[-1]
            om = _om_name(name)
            lines.append(f"# TYPE {om} gauge")
            lines.append(f"{om}{_om_labels(labels)} {_om_value(v)} {_om_value(t)}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    # -- state transfer (shard runner) ---------------------------------------
    def capture_state(self) -> dict[str, object]:
        """A picklable copy of every series ring (plain tuples/lists).

        The rate bookkeeping (``_last_counters`` / ``_last_t``) and the
        probe callbacks are deliberately left behind: captured cells are
        finished runs, and probes hold references to per-cell engines.
        """
        return {
            "interval": self.interval,
            "samples": self.samples,
            "points": {key: list(pts) for key, pts in self._points.items()},
        }

    def absorb(self, state: dict[str, object]) -> None:
        """Fold another recorder's :meth:`capture_state` blob in: each
        series' points are *appended* in blob order, and the blob's
        sampling interval is adopted (the points sit on its grid).
        Callers merge cells in deterministic cell-index order, so the
        combined rings (and any export of them) are identical whether
        cells ran serially or across N workers.
        """
        self.interval = _t.cast(float, state["interval"])
        self.samples += _t.cast(int, state["samples"])
        for key, pts in _t.cast(dict, state["points"]).items():
            ring = self._points.get(key)
            if ring is None:
                ring = self._points[key] = deque(maxlen=self.capacity)
            ring.extend(pts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TimeSeriesRecorder {'on' if self.enabled else 'off'} "
            f"interval={self.interval} series={len(self._points)} "
            f"samples={self.samples}>"
        )


#: the exact shape of ``repro-timeseries/1`` (:mod:`repro.obs.shape` has
#: the notation): each series is a list of ``[t, value]`` points
_TIMESERIES = {
    "schema": str,
    "interval": float,
    "samples": int,
    "series": MapOf([[float]]),
}


def check_timeseries(doc: object) -> list[str]:
    """Strict shape check of a ``repro-timeseries/1`` document: exact
    keys and leaf types, the schema string, a positive finite interval,
    a sample count that is not negative, well-formed series names and
    two-element points with a finite time, and a time that differs from
    the point before it.  Within one cell a series's times strictly
    increase; a sharded run appends each cell's points in cell order and
    every cell starts its own virtual clock, so a time below its
    predecessor starts the next cell, but a repeated time is a sampler
    that stamped one instant twice.  Returns the problems found (empty
    when the document is well formed)."""
    problems = shape_problems(doc, _TIMESERIES, "timeseries")
    if problems:
        return problems
    assert isinstance(doc, dict)
    if doc["schema"] != TIMESERIES_SCHEMA:
        problems.append(
            f"timeseries.schema: expected {TIMESERIES_SCHEMA!r}, got {doc['schema']!r}"
        )
    if not 0 < doc["interval"] < math.inf:
        problems.append("timeseries.interval: expected a finite positive interval")
    if doc["samples"] < 0:
        problems.append("timeseries.samples: expected a count")
    problems += series_name_problems(doc["series"], "timeseries.series")
    for name, points in sorted(doc["series"].items()):
        problems += [
            f"timeseries.series.{name}[{i}]: expected a [t, value] pair with a finite t"
            for i, point in enumerate(points)
            if len(point) != 2 or not math.isfinite(point[0])
        ]
        problems += [
            f"timeseries.series.{name}[{i}]: time {point[0]} repeats the point before it"
            for i, point in enumerate(points)
            if i and point and points[i - 1] and point[0] == points[i - 1][0]
        ]
    return problems


def check_timeseries_file(path: str) -> int:
    """Check a ``--timeseries`` file; print problems; return an exit code."""
    return check_file(path, check_timeseries)


def __getattr__(name: str):
    # ``timeseries.recorder``: the current run's recorder, for callers
    # outside ``src`` (instrumentation sites read ``repro.run.run.recorder``)
    if name == "recorder":
        from repro.run import run

        return run.recorder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def disable() -> TimeSeriesRecorder:
    """Stop the current run's recorder; its points stay readable."""
    from repro.run import run

    return run.recorder.disable()


def install_sampler(
    env: "Environment", registry: MetricsRegistry | None = None
) -> object | None:
    """Install a sampler process on ``env`` ticking at the grid interval.

    The process wakes at each ``k * interval`` boundary, samples, and
    returns as soon as it is the only work left in the environment
    (``Environment.drained``: nothing queued and no reserved record
    still to run) — so it never keeps ``env.run()`` spinning past the
    scenario's real end, and ``env.run(until=event)`` still sees the
    queue drain when the scenario deadlocks.  Samples the current run's
    recorder; returns the process (or ``None`` when that recorder is
    disabled).
    """
    from repro.run import run

    rec = run.recorder
    if not rec.enabled:
        return None

    def _tick():
        while rec.enabled:
            boundary = (rec.grid_index(env.now) + 1) * rec.interval
            if boundary < rec._next_due:
                boundary = rec._next_due
            yield env.sleep_until(boundary)
            rec.sample_due(env.now, registry)
            if env.drained():
                return

    return env.process(_tick(), name="obs.sampler")
