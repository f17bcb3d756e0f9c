"""The deterministic shard runner.

Executes a list of :mod:`repro.shard.cells` across N worker processes
(or in-process for ``jobs=1``) and merges the per-cell outputs back
into the parent's run so that the table rows, metrics snapshots, trace
exports and profile counters are **byte-identical to a serial run**.
Three invariants make that hold:

1. *Every* cell — in-process or in a pool worker, fork or spawn start
   method — begins by installing a known :class:`WorldState` (a
   :class:`WarmSnapshot` fork, or pristine) and swapping in a fresh
   :class:`~repro.run.Run` (new profile counters, metrics registry,
   tracer, recorder and fault injector).  Whatever a previous cell (or
   a forked parent image) left behind is out of reach, so a cell's
   result depends only on the cell value itself.
2. Results are collected with order-preserving ``Pool.map`` and merged
   strictly in cell-index order — never completion order — so gauge
   last-writer-wins, trace row numbering and report concatenation are
   placement-independent.
3. Merge rules are associative re-labelings, not recomputations:
   counters and histogram buckets add, ``peak_queue_depth`` maxes,
   trace rows are re-keyed onto fresh tids per cell.

The parent's world (a :class:`~repro.world.WorldState` copy) and its
run's part objects are saved before the first cell and put back before
merging, so calling the runner is invisible to surrounding code beyond
the merged-in results: a tracer attached to a live environment stays
attached, and an armed fault plan stays armed.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as _mp
import typing as _t

from repro.run import ObsConfig, Run, run
from repro.shard.cells import Cell
from repro.shard.state import WarmSnapshot
from repro.sim.profile import SimCounters
from repro.world import WorldState


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
    block = SimCounters()
    for snap in snaps:
        block.merge(snap)
    return block.snapshot()


def _execute_cell(
    index: int, cell: Cell, snapshot: WarmSnapshot | None, obs: ObsConfig
) -> CellResult:
    """Run one cell from a known state and capture everything it produced.

    This is the only place cells execute, so serial and pooled runs are
    the same code path; it deliberately clobbers the process-wide state
    and leaves the cell's run installed (the parent swaps its own run
    back after the whole batch, and the next cell swaps in a fresh one)."""
    run.swap(Run(obs))
    if snapshot is not None:
        snapshot.fork()
    else:
        WorldState.pristine().install()
    run.counters.shard_cells_run += 1
    value = cell.run()
    return CellResult(
        index=index,
        label=cell.label,
        value=value,
        profile=run.counters.snapshot(),
        metrics=run.metrics.capture_state() if obs.metrics else None,
        trace=run.tracer.capture_state() if obs.trace else None,
        timeseries=run.recorder.capture_state() if obs.timeseries is not None else None,
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
    ``obs`` (default: the current run's config) selects what each cell
    records.  ``snapshot`` (a :class:`WarmSnapshot`) replays each cell
    from the warmed prefix; without one, cells start pristine.  After
    the call the parent's profile counters, metrics registry, tracer and
    recorder hold the merged results on top of whatever they held before.
    """
    cells = list(cells)
    obs = run.obs if obs is None else obs
    saved_world = WorldState.capture()
    saved = run.swap(Run(obs))
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
        run.swap(saved)

    merged = merge_profiles(result.profile for result in results)
    run.counters.merge(merged)
    if obs.metrics:
        for result in results:
            run.metrics.absorb(result.metrics)
    if obs.trace:
        for result in results:
            run.tracer.absorb(result.trace, label=result.label)
    if obs.timeseries is not None:
        for result in results:
            run.recorder.absorb(result.timeseries)
    return ShardResult(results=results, profile=merged, jobs=jobs)
