"""The deterministic shard runner.

Executes a list of :mod:`repro.shard.cells` across N worker processes
(or in-process for ``jobs=1``) and merges the per-cell outputs back
into the parent's observability state so that the table rows, metrics
snapshots, trace exports and profile counters are **byte-identical to a
serial run**.  Three invariants make that hold:

1. *Every* cell — in-process or in a pool worker, fork or spawn start
   method — begins by installing a known :class:`WorldState` (a
   :class:`WarmSnapshot` fork, or pristine) and resetting the profile
   counters, metrics registry and tracer.  Whatever a previous cell (or
   a forked parent image) left behind is overwritten, so a cell's
   result depends only on the cell value itself.
2. Results are collected with order-preserving ``Pool.map`` and merged
   strictly in cell-index order — never completion order — so gauge
   last-writer-wins, trace row numbering and report concatenation are
   placement-independent.
3. Merge rules are associative re-labelings, not recomputations:
   counters and histogram buckets add, ``peak_queue_depth`` maxes,
   trace rows are re-keyed onto fresh tids per cell.

The parent's world (a :class:`~repro.world.WorldState` copy) and each
observability sink (through its public ``capture_state``/``install_state``)
are saved before the first cell and restored before merging, so calling
the runner is invisible to surrounding code beyond the merged-in results.
:func:`observing` wraps the same save/restore around any block, which is
how CLI verbs arm the sinks for one run and leave them as they found them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing as _mp
import typing as _t

from repro.obs.metrics import registry as _registry
from repro.obs.timeseries import recorder as _recorder
from repro.obs.trace import tracer as _tracer
from repro.shard.cells import Cell
from repro.shard.state import WarmSnapshot
from repro.sim import profile as _profile
from repro.world import WorldState


#: the process-wide observability sinks a run writes into; every reset,
#: save and restore goes through this one list
_SINKS = (_profile.counters, _registry, _tracer, _recorder)


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """Which observability layers a run records: each cell of a batch
    (and the merge therefore reconstructs in the parent), or a whole
    CLI verb through :func:`observing`."""

    metrics: bool = False
    trace: bool = False
    trace_wall: bool = False
    #: time-series sampling interval (virtual seconds) or None = off;
    #: cells enable the recorder at this interval, and the parent merges
    #: the sampled rings in cell-index order
    timeseries: float | None = None

    def install(self) -> None:
        """Reset all four sinks and arm the ones this config selects.

        The profile counters always count; the registry, tracer and
        recorder are armed by ``metrics``, ``trace`` and ``timeseries``.
        """
        for sink in _SINKS:
            sink.reset()
        _profile.counters.enabled = True
        _registry.enabled = self.metrics
        _tracer.enabled = self.trace
        _tracer.wall_clock = self.trace_wall
        if self.timeseries is None:
            _recorder.enabled = False
        else:
            _recorder.enable(interval=self.timeseries, reset=False)


def _save_sinks() -> list[tuple[_t.Any, object, bool]]:
    return [(sink, sink.capture_state(), sink.enabled) for sink in _SINKS]


def _restore_sinks(saved: list[tuple[_t.Any, object, bool]]) -> None:
    for sink, state, enabled in saved:
        sink.install_state(state)
        sink.enabled = enabled


@contextlib.contextmanager
def observing(obs: ObsConfig) -> _t.Iterator[None]:
    """Run the body with ``obs`` installed, then put every sink's
    contents and on/off flag back as they were before."""
    saved = _save_sinks()
    obs.install()
    try:
        yield
    finally:
        _restore_sinks(saved)


@dataclasses.dataclass
class CellResult:
    """One cell's outputs: the scenario/chaos value plus raw
    observability state, all picklable."""

    index: int
    label: str
    value: object
    profile: dict[str, int]
    metrics: dict | None
    trace: dict | None
    timeseries: dict | None = None


@dataclasses.dataclass
class ShardResult:
    """All cell results (cell-index order) plus the merged profile."""

    results: list[CellResult]
    profile: dict[str, int]
    jobs: int

    def values(self) -> list:
        return [r.value for r in self.results]


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap workers — no
    re-import), else ``spawn``.  Results are identical under both
    because every cell installs its full world state first."""
    return "fork" if "fork" in _mp.get_all_start_methods() else "spawn"


def merge_profiles(snaps: _t.Iterable[dict[str, int]]) -> dict[str, int]:
    """Fold per-cell counter snapshots: sums, max for high-water marks."""
    block = _profile.SimCounters()
    for snap in snaps:
        block.merge(snap)
    return block.snapshot()


def _execute_cell(
    index: int, cell: Cell, snapshot: WarmSnapshot | None, obs: ObsConfig
) -> CellResult:
    """Run one cell from a known state and capture everything it produced.

    This is the only place cells execute, so serial and pooled runs are
    the same code path; it deliberately clobbers the process-wide state
    and leaves the sinks as the cell left them (the parent saves/restores
    around the whole batch, and the next cell resets them)."""
    obs.install()
    if snapshot is not None:
        snapshot.fork()
    else:
        WorldState.pristine().install()
    _profile.counters.shard_cells_run += 1
    value = cell.run()
    return CellResult(
        index=index,
        label=cell.label,
        value=value,
        profile=_profile.counters.snapshot(),
        metrics=_registry.capture_state() if obs.metrics else None,
        trace=_tracer.capture_state() if obs.trace else None,
        timeseries=_recorder.capture_state() if obs.timeseries is not None else None,
    )


# -- pool worker entry points (must be importable, not closures) -------------

_WORKER_SNAPSHOT: WarmSnapshot | None = None
_WORKER_OBS: ObsConfig = ObsConfig()


def _worker_init(snapshot_blob: bytes | None, obs: ObsConfig) -> None:
    global _WORKER_SNAPSHOT, _WORKER_OBS
    _WORKER_SNAPSHOT = (
        WarmSnapshot.from_bytes(snapshot_blob) if snapshot_blob is not None else None
    )
    _WORKER_OBS = obs


def _worker_run(item: tuple[int, Cell]) -> CellResult:
    index, cell = item
    return _execute_cell(index, cell, _WORKER_SNAPSHOT, _WORKER_OBS)


def run_cells(
    cells: _t.Sequence[Cell],
    jobs: int = 1,
    obs: ObsConfig | None = None,
    snapshot: WarmSnapshot | None = None,
    start_method: str | None = None,
) -> ShardResult:
    """Execute ``cells`` across ``jobs`` workers and merge the outputs.

    ``jobs <= 1`` runs in-process through the identical per-cell path.
    ``snapshot`` (a :class:`WarmSnapshot`) replays each cell from the
    warmed prefix; without one, cells start pristine.  After the call
    the parent's profile counters, metrics registry and tracer hold the
    merged results on top of whatever they held before.
    """
    cells = list(cells)
    obs = obs or ObsConfig()
    saved_world = WorldState.capture()
    saved = _save_sinks()
    try:
        if jobs <= 1 or len(cells) <= 1:
            results = [
                _execute_cell(i, cell, snapshot, obs) for i, cell in enumerate(cells)
            ]
        else:
            ctx = _mp.get_context(start_method or default_start_method())
            blob = snapshot.to_bytes() if snapshot is not None else None
            with ctx.Pool(
                processes=min(jobs, len(cells)),
                initializer=_worker_init,
                initargs=(blob, obs),
            ) as pool:
                results = pool.map(_worker_run, list(enumerate(cells)), chunksize=1)
    finally:
        # Put the parent back exactly as it was before merging anything in.
        saved_world.install()
        _restore_sinks(saved)

    merged = merge_profiles(result.profile for result in results)
    _profile.counters.merge(merged)
    if obs.metrics:
        for result in results:
            _registry.install_state(result.metrics, merge=True)
    if obs.trace:
        for result in results:
            _tracer.absorb(result.trace, label=result.label)
    if obs.timeseries is not None:
        for result in results:
            _recorder.install_state(result.timeseries, merge=True)
    return ShardResult(results=results, profile=merged, jobs=jobs)
