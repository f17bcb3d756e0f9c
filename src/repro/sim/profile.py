"""Lightweight counters for the simulator hot path.

The discrete-event core increments a handful of plain-integer counters as
it schedules and processes events.  They cost a few attribute increments
per event — cheap enough to stay always-on — and give the paper benches'
event ceilings, the tier-1 tests and perfbench's ``sim.events`` a stable
way to report *how much* simulator bookkeeping a sweep performed,
independent of wall-clock noise:

- ``events_scheduled`` / ``events_processed``: total queue traffic;
- ``heap_pushes`` / ``heap_pops``: events that paid ``heapq`` cost (true
  timeouts and urgent interrupts);
- ``immediate_pushes`` / ``immediate_pops``: zero-delay events served from
  the FIFO fast path;
- ``direct_resumes``: process resumes that skipped carrier-event
  allocation entirely;
- ``processes_spawned``: generator processes created;
- ``peak_queue_depth``: high-water mark of heap + immediate queue;
- ``parked_processes``: times a tickless control loop parked on a
  :class:`~repro.sim.signal.Signal` instead of scheduling a poll;
- ``wakeups_fired``: waiters woken by ``Signal.fire()``;
- ``poll_ticks_skipped``: idle polling ticks that event-driven parking
  avoided scheduling (each one a heap push in the pre-tickless core);
- ``cow_clones``: :meth:`FileTree.clone` calls served by copy-on-write
  structural sharing (aliasing the frozen root instead of deep-copying);
- ``cow_copy_ups``: nodes shallow-copied to unshare a mutation spine —
  the *total* tree work a mutation against a shared tree actually paid;
- ``digest_cache_hits``: :meth:`FileNode.digest` calls answered from the
  per-node memo instead of rehashing content;
- ``flatten_cache_hits``: image flatten/convert/pack requests served
  from a content-addressed cache (each hit is one whole rootfs
  materialization that used to be rebuilt layer by layer);
- ``shard_cells_run``: matrix cells executed by the
  :mod:`repro.shard` runner (serial and parallel alike);
- ``snapshot_forks``: times a :class:`~repro.shard.WarmSnapshot` was
  forked into :data:`repro.world.world`, the one object that holds every
  id counter and content cache;
- ``warm_replays``: prefix materializations (e.g. whole dockerfile
  builds) replayed from a warm snapshot's fingerprint-keyed cache
  instead of re-simulated — the counters jump to the recorded
  positions, so a replay is world-state-identical to a cold run;
- ``event_queue_peak``: high-water mark of *deferred work* reported by
  batching engines (e.g. :mod:`repro.workload.fleet`): simulator queue
  plus any calendar/pending structures an engine keeps outside the
  event core.  ``peak_queue_depth`` only sees what reaches the heap, so
  an epoch-batched engine would otherwise look idle while holding a
  million future completions;
- ``live_objects_peak``: high-water mark of live pooled records (e.g.
  running containers + queued starts) — the fleet memory-pressure
  number;
- ``sched_index_hits``: placement queries (k8s pod binds, WLM job fits)
  answered by the bucketed/ordered capacity indexes instead of a linear
  node scan;
- ``sched_linear_fallbacks``: placement queries where the index did not
  short-circuit (the query degenerated into scanning most of the node
  set — saturated clusters, exotic selectors);
- ``watch_batched_notifies``: apiserver watch events dispatched through
  the keyed fast path — one routed delivery instead of a fan-out
  callback per registered watcher;
- ``sched_pending_peak``: high-water mark of the k8s scheduler's
  pending-pod queue (the control-plane backlog number).

Counters are global (aggregated across all :class:`Environment` instances)
so a benchmark that builds many environments still gets one roll-up.
Counting is **off by default** — the hot path pays only a single boolean
check per event — and is switched on explicitly::

    from repro.sim import profile
    profile.enable()      # resets and starts counting
    ...                   # run simulations
    print(profile.counters.snapshot())
    profile.disable()
"""

from __future__ import annotations

_FIELDS = (
    "events_scheduled",
    "events_processed",
    "heap_pushes",
    "heap_pops",
    "immediate_pushes",
    "immediate_pops",
    "direct_resumes",
    "processes_spawned",
    "peak_queue_depth",
    "parked_processes",
    "wakeups_fired",
    "poll_ticks_skipped",
    "cow_clones",
    "cow_copy_ups",
    "digest_cache_hits",
    "flatten_cache_hits",
    "shard_cells_run",
    "snapshot_forks",
    "warm_replays",
    "event_queue_peak",
    "live_objects_peak",
    "sched_index_hits",
    "sched_linear_fallbacks",
    "watch_batched_notifies",
    "sched_pending_peak",
)

#: fields that are high-water marks: they merge by max, not by sum.
PEAK_FIELDS = frozenset(
    {"peak_queue_depth", "event_queue_peak", "live_objects_peak",
     "sched_pending_peak"}
)


class SimCounters:
    """Mutable counter block updated by the simulator core.

    ``enabled`` gates all counting: the simulator reads it once per
    scheduled/processed event and skips every increment while False.
    """

    __slots__ = _FIELDS + ("enabled",)

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        for field in _FIELDS:
            setattr(self, field, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the current counter values."""
        return {field: getattr(self, field) for field in _FIELDS}

    def snapshot_delta(self, baseline: dict[str, int]) -> dict[str, int]:
        """Per-field difference against an earlier :meth:`snapshot`.

        This is the nesting-safe way to measure a sub-workload while
        counting is already on (a benchmark harness inside a traced
        scenario): take a snapshot, run, diff — no reset required.
        Note ``peak_queue_depth`` is a high-water mark, so its delta is
        only meaningful when the inner workload pushed a new peak.
        """
        return {field: getattr(self, field) - baseline.get(field, 0) for field in _FIELDS}

    #: the shard runner's state-transfer name for :meth:`snapshot`
    capture_state = snapshot

    def install_state(self, state: dict[str, int]) -> None:
        """Load a :meth:`snapshot` back, replacing the values wholesale."""
        self.reset()
        self.merge(state)

    def merge(self, snap: dict[str, int]) -> None:
        """Fold another block's :meth:`snapshot` into this one.

        Additive for every field except the :data:`PEAK_FIELDS`
        high-water marks, which merge by max.  This is how the shard
        runner rolls per-cell counter blocks up into the parent
        process's totals (the merged result is identical whichever
        process ran each cell, so parallel and serial runs report the
        same numbers).
        """
        for field in _FIELDS:
            value = snap.get(field, 0)
            if field in PEAK_FIELDS:
                if value > getattr(self, field):
                    setattr(self, field, value)
            else:
                setattr(self, field, getattr(self, field) + value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{f}={getattr(self, f)}" for f in _FIELDS)
        return f"SimCounters({body})"


#: The global counter block every Environment feeds.
counters = SimCounters()

#: enable()/disable() nesting depth — counting stays on until the
#: outermost enable is balanced by its disable.
_depth = 0


def enable(reset: bool = True) -> SimCounters:
    """Start counting; returns the block.

    Re-entrancy-safe: calls nest.  Only the *outermost* ``enable`` may
    reset the counters (``reset=True``, the default); a nested enable —
    e.g. a benchmark harness running inside an already-profiled scenario
    — keeps counting into the same block instead of silently clobbering
    the outer caller's totals.  Use :meth:`SimCounters.snapshot_delta`
    to measure the inner region.  Counting turns off only when every
    ``enable`` has been balanced by a :func:`disable`.
    """
    global _depth
    if _depth == 0 and reset:
        counters.reset()
    _depth += 1
    counters.enabled = True
    return counters


def disable() -> SimCounters:
    """Undo one :func:`enable`; counting stops at the outermost level.

    Extra ``disable()`` calls (no matching enable) are no-ops, so a
    cleanup-path ``disable`` cannot push the depth negative.  The
    accumulated values stay readable either way.
    """
    global _depth
    if _depth > 0:
        _depth -= 1
    if _depth == 0:
        counters.enabled = False
    return counters


def enable_depth() -> int:
    """Current enable() nesting depth (0 == counting off)."""
    return _depth
