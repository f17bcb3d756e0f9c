"""The virtual-time span tracer.

Records where virtual time goes — engine startup phases, filesystem IO
bursts, scheduler passes, registry transfers — as Chrome/Perfetto trace
events.  Instrumentation sites record into the current run's tracer,
``repro.run.run.tracer``.  Three event styles map onto the three shapes
of timed work in this repository:

``span(name, **labels)``
    A context manager for code that *advances the virtual clock while it
    runs* (simulation processes yielding timeouts): records a ``B``
    (begin) event on entry and an ``E`` (end) event on exit, both
    stamped with the current virtual time.  Spans opened inside a
    simulation process land on that process's "thread" row (the tracer
    maps :attr:`Environment.active_process` to a stable ``tid``), so
    nesting is correct even while the environment interleaves dozens of
    processes: each process's spans form their own properly nested
    stack.

``complete(name, duration, **labels)`` / ``complete_at(...)``
    A single ``X`` (complete) event with an explicit duration, for
    *analytic* costs: code that computes a time cost as a number (engine
    ``run`` phase timings, registry transfer costs, ``est_*`` IO sums)
    without itself yielding to the simulator.  The caller typically
    sleeps the same amount right after, so the slice lines up with the
    virtual timeline around it.

``instant(name, **labels)``
    A zero-duration ``i`` marker (a scheduler bind, a job state flip).

The tracer is **off by default and zero-cost when disabled**: every
recording helper starts with one predicate check against
:attr:`Tracer.enabled`, and hot paths guard with the same check before
building any label dict.  Timestamps are *virtual* seconds (exported as
microseconds), so an exported trace is fully deterministic: two runs of
the same scenario produce byte-identical JSON.  Wall-clock deltas (for
profiling the simulator itself) are recorded only under
``ObsConfig(trace_wall=True)`` — they are deliberately excluded from the
deterministic default.

Clock sources: an :class:`~repro.sim.environment.Environment` created
while tracing is enabled attaches itself automatically (last one wins —
the CLI entry points create exactly one).  With no environment attached
(e.g. the analytic ``repro startup`` sweep), the tracer keeps a
*synthetic* cursor that ``complete()`` advances, so back-to-back
analytic phases still lay out sequentially instead of stacking at t=0.
"""

from __future__ import annotations

import time
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports us)
    from repro.sim.environment import Environment

#: event record: (ph, name, ts_seconds, tid, args|None, dur_seconds|None)
_EventTuple = tuple[str, str, float, int, dict | None, float | None]

#: tid the tracer assigns to code running outside any simulation process
MAIN_TID = 0


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; records ``E`` with the entry tid so B/E stay balanced
    per thread row even across exception exits."""

    __slots__ = ("_tracer", "_name", "_labels", "_tid", "_wall0")

    def __init__(self, tracer: "Tracer", name: str, labels: dict | None):
        self._tracer = tracer
        self._name = name
        self._labels = labels

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._tid = tracer._tid()
        tracer._record("B", self._name, tracer.now(), self._tid, self._labels, None)
        self._wall0 = time.perf_counter() if tracer.wall_clock else 0.0
        return self

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        args = None
        if tracer.wall_clock:
            args = {"wall_ms": round((time.perf_counter() - self._wall0) * 1e3, 3)}
        tracer._record("E", self._name, tracer.now(), self._tid, args, None)
        return False


class Tracer:
    """Collects trace events against the attached environment's clock."""

    __slots__ = (
        "enabled",
        "wall_clock",
        "_events",
        "_env",
        "_synthetic",
        "_tids",
        "_thread_names",
        "_pinned",
        "_next_tid",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.wall_clock = False
        self._events: list[_EventTuple] = []
        self._env: "Environment | None" = None
        #: synthetic clock cursor used when no environment is attached
        self._synthetic = 0.0
        #: id(process) -> tid (insertion order == first-traced order)
        self._tids: dict[int, int] = {}
        #: tid -> display name
        self._thread_names: dict[int, str] = {MAIN_TID: "main"}
        #: strong refs so id() keys cannot be recycled mid-trace
        self._pinned: list[object] = []
        #: next tid to hand out — covers both live processes (:meth:`_tid`)
        #: and rows adopted from other shards (:meth:`absorb`)
        self._next_tid = 1

    # -- lifecycle ----------------------------------------------------------
    def attach(self, env: "Environment") -> None:
        """Adopt ``env``'s virtual clock and active-process tracking.

        Called by :class:`Environment` on construction while tracing is
        enabled; with several live environments the most recent wins
        (the CLI entry points build exactly one per run).
        """
        self._env = env

    # -- clock / thread mapping --------------------------------------------
    def now(self) -> float:
        env = self._env
        return env._now if env is not None else self._synthetic

    def _tid(self) -> int:
        env = self._env
        process = env._active_process if env is not None else None
        if process is None:
            return MAIN_TID
        key = id(process)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._next_tid
            self._next_tid += 1
            self._tids[key] = tid
            self._thread_names[tid] = getattr(process, "name", "process")
            self._pinned.append(process)
        return tid

    # -- recording ----------------------------------------------------------
    def _record(
        self,
        ph: str,
        name: str,
        ts: float,
        tid: int,
        args: dict | None,
        dur: float | None,
    ) -> None:
        self._events.append((ph, name, ts, tid, args, dur))

    def span(self, name: str, **labels: object) -> "_Span | _NullSpan":
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, labels or None)

    def complete(self, name: str, duration: float, **labels: object) -> None:
        """An ``X`` slice of ``duration`` starting at the current time."""
        if not self.enabled:
            return
        ts = self.now()
        self._record("X", name, ts, self._tid(), labels or None, duration)
        if self._env is None:
            # Analytic mode: advance the synthetic cursor so consecutive
            # complete() calls lay out sequentially.
            self._synthetic = ts + duration

    def complete_at(
        self, name: str, start: float, duration: float, **labels: object
    ) -> None:
        """An ``X`` slice with an explicit start (e.g. a phase breakdown
        replayed from an engine's timing dict)."""
        if not self.enabled:
            return
        self._record("X", name, start, self._tid(), labels or None, duration)

    def instant(self, name: str, **labels: object) -> None:
        if not self.enabled:
            return
        self._record("i", name, self.now(), self._tid(), labels or None, None)

    def instant_at(self, name: str, ts: float, **labels: object) -> None:
        """An ``i`` marker at an explicit timestamp — for events derived
        *after* the run (SLO alert fire/resolve points evaluated over the
        sampled series); the export sorts by ts, so they interleave into
        the timeline as if recorded live."""
        if not self.enabled:
            return
        self._record("i", name, ts, self._tid(), labels or None, None)

    # -- state transfer (shard runner) ---------------------------------------
    def capture_state(self) -> dict[str, object]:
        """A picklable copy of the recorded events and thread names.

        Event tuples carry only strings, numbers and plain dicts, so the
        blob crosses a ``multiprocessing`` boundary unchanged; the
        live-process bookkeeping (``_tids``/``_pinned``) is deliberately
        left behind — the receiving side re-keys rows via :meth:`absorb`.
        """
        return {
            "events": list(self._events),
            "thread_names": dict(self._thread_names),
        }

    def absorb(self, state: dict[str, object], label: str | None = None) -> None:
        """Adopt another shard's :meth:`capture_state` blob.

        Every foreign tid — *including* its main row — is remapped onto a
        fresh tid here, in first-appearance order, so rows from different
        cells never interleave on one thread row (B/E nesting stays valid
        per row no matter how cells' virtual timelines overlap).  Callers
        absorb cells in deterministic cell-index order, which makes the
        resulting tid assignment — and thus the exported JSON — identical
        whether the cells ran serially or across N workers.  ``label``
        prefixes the adopted row names (e.g. ``seed=7:main``).
        """
        thread_names = _t.cast(dict, state["thread_names"])
        remap: dict[int, int] = {}
        for ph, name, ts, tid, args, dur in _t.cast(list, state["events"]):
            new_tid = remap.get(tid)
            if new_tid is None:
                new_tid = self._next_tid
                self._next_tid += 1
                remap[tid] = new_tid
                base = thread_names.get(tid, f"tid-{tid}")
                self._thread_names[new_tid] = f"{label}:{base}" if label else base
            self._events.append((ph, name, ts, new_tid, args, dur))

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[_EventTuple]:
        """The raw event tuples, in record order (tests / export)."""
        return self._events

    def thread_name(self, tid: int) -> str:
        return self._thread_names.get(tid, f"tid-{tid}")

    def categories(self) -> set[str]:
        """Subsystem prefixes (text before the first '.') seen so far."""
        return {name.split(".", 1)[0] for _ph, name, *_rest in self._events}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} events={len(self._events)} tids={len(self._tids)}>"


def export_json(path: str | None = None, indent: int | None = None) -> str:
    """Export the current run's events as Chrome trace JSON (see
    :func:`repro.obs.export.to_chrome_json`)."""
    from repro.obs.export import to_chrome_json
    from repro.run import run

    text = to_chrome_json(run.tracer, indent=indent)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
