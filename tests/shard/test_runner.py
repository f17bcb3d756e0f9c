"""Serial-vs-sharded equivalence: the runner's whole contract.

Every test compares artifacts *byte for byte* — rendered tables, trace
JSON, report JSON, profile snapshots — because that is the guarantee
``--jobs N`` makes: not "statistically the same", identical.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.run import PARTS, ObsConfig, observing, run
from repro.shard import (
    WarmSnapshot,
    chaos_seed_sweep,
    merge_profiles,
    parse_seed_range,
    run_cells,
    scenario_matrix,
)
from repro.sim import profile as sim_profile
from repro.world import WorldState

N_NODES = 2
N_PODS = 4


@pytest.fixture
def _obs_clean():
    """The test's run is its own: whatever it merges in goes away."""
    with observing(ObsConfig()):
        yield


def _parts() -> tuple:
    return tuple(getattr(run, name) for name in PARTS)


@pytest.fixture(scope="module")
def snapshot():
    return WarmSnapshot.for_scenario_prefix(n_nodes=N_NODES)


def _matrix_artifacts(jobs, snapshot, start_method=None):
    """Run the §6.6 matrix and return comparable artifacts."""
    from repro.core.tables import render_table
    from repro.scenarios.evaluate import summary_rows

    # the cells record what the session selects
    with observing(ObsConfig(metrics=True)) as observed:
        result = run_cells(
            scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS),
            jobs=jobs,
            snapshot=snapshot,
            start_method=start_method,
        )
        metrics_table = observed.metrics.render_table()
    table = render_table(summary_rows(result.values()), "matrix")
    return table, metrics_table, result.profile


def test_matrix_serial_vs_sharded_identical(snapshot, _obs_clean):
    serial = _matrix_artifacts(1, snapshot)
    for jobs in (2, 4):
        assert _matrix_artifacts(jobs, snapshot) == serial


def test_matrix_spawn_matches_fork(snapshot, _obs_clean):
    """Same artifacts under the spawn start method (fresh interpreters)."""
    serial = _matrix_artifacts(1, snapshot)
    assert _matrix_artifacts(2, snapshot, start_method="spawn") == serial


def test_matrix_profile_shows_shard_counters(snapshot, _obs_clean):
    _, _, profile = _matrix_artifacts(2, snapshot)
    n_cells = len(scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS))
    assert profile["shard_cells_run"] == n_cells
    assert profile["snapshot_forks"] == n_cells
    assert profile["warm_replays"] == n_cells  # one replayed build per cell


#: simulator events the full §6.6 matrix plus a 16-seed chaos sweep may
#: process: the 84,658 it took when the ceiling was set, plus 25%
MATRIX_CHAOS_EVENT_CEILING = 105_822


def test_matrix_and_chaos_sweep_counters_are_placement_invariant(_obs_clean):
    """The full-size shard workload: its merged counters are the same
    serial and pooled, every cell forks the warm snapshot and replays its
    prefix, and the whole batch stays under an event ceiling."""
    cells = scenario_matrix() + chaos_seed_sweep("kubelet-in-allocation", range(16))
    snapshot = WarmSnapshot.for_scenario_prefix()
    serial = run_cells(cells, jobs=1, snapshot=snapshot).profile
    pooled = run_cells(cells, jobs=2, snapshot=snapshot).profile
    assert pooled == serial
    assert serial["shard_cells_run"] == serial["snapshot_forks"] == len(cells)
    assert serial["warm_replays"] >= len(cells)
    assert serial["events_processed"] <= MATRIX_CHAOS_EVENT_CEILING


#: simulator events of the kubelet-in-allocation chaos cells of seeds
#: 0..3 at the default shape, an exact count: 16,734 while every empty
#: scheduler pass queued its sleep record
KIA_CHAOS_EVENTS_SEEDS_0_3 = 15_005


def test_kubelet_in_allocation_chaos_cells_event_count(_obs_clean):
    """The idle control plane's event cost, pinned: each heartbeat is
    its tick and RPC records plus the scheduler wake its Node write
    rings, and the empty pass after that wake queues no record."""
    cells = chaos_seed_sweep("kubelet-in-allocation", range(4))
    result = run_cells(cells, jobs=1, snapshot=WarmSnapshot.for_scenario_prefix())
    assert result.profile["events_processed"] == KIA_CHAOS_EVENTS_SEEDS_0_3


def _sweep_artifacts(jobs, seeds, snapshot):
    from repro.faults.chaos import chaos_report_document
    from repro.obs.export import to_chrome_json, validate_chrome_trace

    with observing(ObsConfig()) as observed:
        result = run_cells(
            chaos_seed_sweep("kubelet-in-allocation", seeds,
                             n_nodes=N_NODES, n_pods=N_PODS),
            jobs=jobs,
            obs=ObsConfig(trace=True),
            snapshot=snapshot,
        )
        trace_text = to_chrome_json(observed.tracer)
    doc = chaos_report_document(result.values(), "kubelet-in-allocation")
    assert validate_chrome_trace(json.loads(trace_text)) == []
    return json.dumps(doc, indent=2), trace_text


def test_chaos_sweep_serial_vs_sharded_identical(snapshot, _obs_clean):
    seeds = parse_seed_range("0..3")
    serial = _sweep_artifacts(1, seeds, snapshot)
    for jobs in (2, 4):
        assert _sweep_artifacts(jobs, seeds, snapshot) == serial


def test_runner_restores_parent_state(snapshot, _obs_clean):
    before = WorldState.capture()
    prof_before = run.counters.snapshot()
    run_cells(
        scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS)[:1],
        jobs=1,
        snapshot=snapshot,
    )
    after = WorldState.capture()
    # The parent world (counters + caches) is untouched; only the merged
    # profile counters landed on top of the saved values.
    assert after.counters == before.counters
    assert {n: set(c) for n, c in after.caches.items()} == {
        n: set(c) for n, c in before.caches.items()
    }
    assert run.counters.shard_cells_run - prof_before["shard_cells_run"] == 1


def test_observing_arms_the_selected_sinks_then_restores_all_four(_obs_clean):
    """A session swaps in five fresh parts armed as its config selects,
    and puts the outer parts back — the same objects, contents and flags."""
    outer_obs = ObsConfig(metrics=True)
    with observing(outer_obs):
        run.metrics.inc("outer.calls")
        run.counters.events_processed = 5
        outer = _parts()
        before = [part.enabled for part in outer]
        with observing(ObsConfig(metrics=True, trace=True, timeseries=7.0)) as inner:
            assert not any(a is b for a, b in zip(_parts(), outer))
            assert all(part.enabled for part in _parts()[:4])
            assert not inner.faults.enabled  # armed by a plan, not a config
            assert inner.recorder.interval == 7.0
            assert inner.metrics.snapshot(include_sim=False) == {}
            assert inner.counters.events_processed == 0
            run_cells(scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS)[:1])
            assert inner.metrics.snapshot(include_sim=False)
            assert len(inner.tracer)
        assert all(a is b for a, b in zip(_parts(), outer))
        assert [part.enabled for part in outer] == before
        assert run.obs == outer_obs
        assert run.metrics.snapshot(include_sim=False) == {"outer.calls": 1.0}
        assert run.counters.events_processed == 5


@dataclasses.dataclass(frozen=True)
class _RaisingCell:
    label: str = "boom"

    def run(self) -> object:
        raise RuntimeError("cell failed")


def test_raising_cell_leaves_the_parent_run_installed(_obs_clean):
    with observing(ObsConfig(metrics=True, trace=True, timeseries=5.0)):
        parts = _parts()
        flags = [part.enabled for part in parts]
        world = WorldState.capture()
        with pytest.raises(RuntimeError, match="cell failed"):
            run_cells([_RaisingCell()], jobs=1)
        assert all(a is b for a, b in zip(_parts(), parts))
        assert [part.enabled for part in parts] == flags
        assert WorldState.capture() == world


def test_batch_leaves_a_live_traced_session_attached_and_armed(_obs_clean):
    """A batch of fleet cells inside a traced session with a live
    environment: afterwards the process's next instant is stamped at
    env time on its own row, and the parent's armed plan still fires."""
    from repro.faults import FaultEvent, FaultKind, FaultPlan
    from repro.obs.trace import MAIN_TID
    from repro.sim import Environment
    from repro.workload.fleet import FleetConfig, generate_fleet_plan, run_fleet

    config = FleetConfig(tenants=2, nodes=4, starts=40, shards=2, seed=1)
    outage = FaultEvent(kind=FaultKind.REGISTRY_429, at=0.0, duration=100.0)
    with observing(ObsConfig(trace=True)):
        env = Environment()
        run.faults.arm(FaultPlan([outage]), env)

        def driver():
            yield env.timeout(10.0)
            run.tracer.instant("before")
            run_fleet(config, plan=generate_fleet_plan(config, seed=1))
            yield env.timeout(10.0)
            run.tracer.instant("after")

        env.process(driver(), name="driver")
        env.run()
        marks = {name: (ts, tid) for _ph, name, ts, tid, *_ in run.tracer.events
                 if name in ("before", "after")}
        (t_before, tid), (t_after, tid_after) = marks["before"], marks["after"]
        assert (t_before, t_after) == (10.0, 20.0)
        assert tid_after == tid != MAIN_TID
        assert run.faults.enabled
        assert run.faults.active("registry.pull", at=50.0) is not None


# -- the partition-merge property --------------------------------------------

_SNAP = st.fixed_dictionaries(
    {field: st.integers(min_value=0, max_value=10**6)
     for field in sim_profile._FIELDS}
)


@settings(max_examples=50, deadline=None)
@given(snaps=st.lists(_SNAP, max_size=8), cut=st.integers(min_value=0, max_value=8))
def test_profile_merge_is_partition_invariant(snaps, cut):
    """Merging any split of the cells equals merging them all at once —
    the algebraic fact that makes sharded profile totals equal serial."""
    cut = min(cut, len(snaps))
    left, right = snaps[:cut], snaps[cut:]
    two_step = merge_profiles([merge_profiles(left), merge_profiles(right)])
    assert two_step == merge_profiles(snaps)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_seed_partition_merges_to_same_report(data):
    """Any partition of a sweep's seeds, run as separate batches and
    concatenated in order, yields the same report document."""
    from repro.faults.chaos import chaos_report_document

    seeds = list(range(4))
    cut = data.draw(st.integers(min_value=0, max_value=len(seeds)))
    cells = chaos_seed_sweep("kubelet-in-allocation", seeds,
                             n_nodes=N_NODES, n_pods=2)

    with observing(ObsConfig()):
        whole = run_cells(cells, jobs=1).values()
        parts = (run_cells(cells[:cut], jobs=1).values()
                 + run_cells(cells[cut:], jobs=1).values())
    assert (chaos_report_document(parts, "kubelet-in-allocation")
            == chaos_report_document(whole, "kubelet-in-allocation"))
