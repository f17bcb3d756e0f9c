"""Serial-vs-sharded equivalence: the runner's whole contract.

Every test compares artifacts *byte for byte* — rendered tables, trace
JSON, report JSON, profile snapshots — because that is the guarantee
``--jobs N`` makes: not "statistically the same", identical.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.shard import (
    ObsConfig,
    WarmSnapshot,
    chaos_seed_sweep,
    merge_profiles,
    observing,
    parse_seed_range,
    run_cells,
    scenario_matrix,
)
from repro.sim import profile as sim_profile

N_NODES = 2
N_PODS = 4


@pytest.fixture
def _obs_clean():
    yield
    from repro.obs import metrics, trace

    trace.disable()
    trace.reset()
    metrics.registry.enabled = False
    metrics.reset()
    while sim_profile.enable_depth() > 0:
        sim_profile.disable()
    sim_profile.counters.reset()


@pytest.fixture(scope="module")
def snapshot():
    return WarmSnapshot.for_scenario_prefix(n_nodes=N_NODES)


def _matrix_artifacts(jobs, snapshot, start_method=None):
    """Run the §6.6 matrix and return comparable artifacts."""
    from repro.core.tables import render_table
    from repro.obs import metrics as obs_metrics
    from repro.scenarios.evaluate import summary_rows

    sim_profile.counters.reset()
    obs_metrics.registry.reset()
    result = run_cells(
        scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS),
        jobs=jobs,
        obs=ObsConfig(metrics=True),
        snapshot=snapshot,
        start_method=start_method,
    )
    table = render_table(summary_rows(result.values()), "matrix")
    metrics_table = obs_metrics.registry.render_table()
    obs_metrics.registry.reset()
    sim_profile.counters.reset()
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


def _sweep_artifacts(jobs, seeds, snapshot):
    from repro.faults.chaos import chaos_report_document
    from repro.obs import trace as obs_trace
    from repro.obs.export import to_chrome_json, validate_chrome_trace

    obs_trace.tracer.reset()
    result = run_cells(
        chaos_seed_sweep("kubelet-in-allocation", seeds,
                         n_nodes=N_NODES, n_pods=N_PODS),
        jobs=jobs,
        obs=ObsConfig(trace=True),
        snapshot=snapshot,
    )
    doc = chaos_report_document(result.values(), "kubelet-in-allocation")
    trace_text = to_chrome_json(obs_trace.tracer)
    assert validate_chrome_trace(json.loads(trace_text)) == []
    obs_trace.tracer.reset()
    sim_profile.counters.reset()
    return json.dumps(doc, indent=2), trace_text


def test_chaos_sweep_serial_vs_sharded_identical(snapshot, _obs_clean):
    seeds = parse_seed_range("0..3")
    serial = _sweep_artifacts(1, seeds, snapshot)
    for jobs in (2, 4):
        assert _sweep_artifacts(jobs, seeds, snapshot) == serial


def test_runner_restores_parent_state(snapshot, _obs_clean):
    from repro.world import WorldState

    before = WorldState.capture()
    prof_before = sim_profile.counters.snapshot()
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
    delta = sim_profile.counters.snapshot_delta(prof_before)
    assert delta["shard_cells_run"] == 1
    sim_profile.counters.reset()


def test_observing_arms_the_selected_sinks_then_restores_all_four(_obs_clean):
    from repro.obs import metrics, timeseries, trace

    sinks = (sim_profile.counters, metrics.registry, trace.tracer, timeseries.recorder)
    metrics.registry.enabled = True
    metrics.inc("outer.calls")
    sim_profile.counters.events_processed = 5
    trace.tracer.instant("outer.mark")
    before = [(sink.capture_state(), sink.enabled) for sink in sinks]
    with observing(ObsConfig(metrics=True, trace=True, timeseries=7.0)):
        assert [sink.enabled for sink in sinks] == [True] * 4
        assert timeseries.recorder.interval == 7.0
        assert metrics.registry.snapshot(include_sim=False) == {}
        assert len(trace.tracer) == 0
        assert sim_profile.counters.events_processed == 0
        run_cells(scenario_matrix(n_nodes=N_NODES, n_pods=N_PODS)[:1],
                  obs=ObsConfig(metrics=True, trace=True, timeseries=7.0))
        assert metrics.registry.snapshot(include_sim=False)
    assert [(sink.capture_state(), sink.enabled) for sink in sinks] == before
    timeseries.reset()


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

    whole = run_cells(cells, jobs=1).values()
    parts = (run_cells(cells[:cut], jobs=1).values()
             + run_cells(cells[cut:], jobs=1).values())
    sim_profile.counters.reset()
    assert (chaos_report_document(parts, "kubelet-in-allocation")
            == chaos_report_document(whole, "kubelet-in-allocation"))
