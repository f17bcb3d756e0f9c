"""Fleet→scenario replay bridge: determinism, parallel identity, and
equivalence with the linear control-plane oracles on a small fleet."""

import json

import pytest

from repro.run import ObsConfig, observing
from repro.scenarios.fleet_replay import (
    FleetReplayScenario,
    check_replay_report,
    replay_report_document,
    run_fleet_replay,
)
from repro.sim import Environment
from repro.workload.fleet import FleetConfig
from repro.world import WorldState

from tests.oracles.control_plane import use_control_plane_oracles

SMALL = FleetConfig(
    tenants=3, nodes=6, starts=30, images=4, seed=1, shards=2, day=600.0
)


def doc_json(config, jobs=1):
    return json.dumps(
        replay_report_document(run_fleet_replay(config, jobs=jobs)),
        indent=2,
        sort_keys=True,
    )


def test_replay_completes_every_start_without_leaks():
    result = run_fleet_replay(SMALL)
    assert result.submitted == SMALL.starts
    assert result.completed + result.failed == result.submitted
    assert result.failed == 0
    assert result.leaks == []
    assert result.binds >= result.completed
    assert result.makespan > 0.0
    # each shard got its slice of the fleet's node pool
    assert sum(s.nodes for s in result.shards) == SMALL.nodes


def test_replay_is_deterministic_and_jobs_invariant():
    serial = doc_json(SMALL, jobs=1)
    assert doc_json(SMALL, jobs=1) == serial      # rerun: byte-identical
    assert doc_json(SMALL, jobs=2) == serial      # parallel: byte-identical


def test_replay_fast_matches_naive_oracle(monkeypatch):
    fast = doc_json(SMALL)
    use_control_plane_oracles(monkeypatch)
    assert doc_json(SMALL) == fast


def test_replay_report_passes_the_strict_shape_check():
    doc = json.loads(doc_json(SMALL))
    assert check_replay_report(doc) == []


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (lambda d: d.update(extra=1), "unexpected key 'extra'"),
        (lambda d: d["totals"].pop("binds"), "missing key 'binds'"),
        (lambda d: d["shards"][0].update(nodes=1.0), "shards[0].nodes: expected int"),
        (lambda d: d["totals"].update(failed=True), "totals.failed: expected int"),
        (lambda d: d.update(schema="repro-fleet-replay-report/2"), "report.schema"),
        (lambda d: d["config"].update(bogus=1), "unknown FleetConfig key"),
        (lambda d: d.update(leaks=[3]), "leaks[0]: expected str"),
    ],
)
def test_replay_shape_check_rejects_drift(tamper, expected):
    doc = json.loads(doc_json(SMALL))
    tamper(doc)
    problems = check_replay_report(doc)
    assert any(expected in p for p in problems), problems


# -- a finished pod gives back everything its start took -----------------------

def _replay_shard(starts: int, sample: bool = True):
    """Run one 8-node replay shard; returns (scenario, result, events,
    samples), where samples are per-node retained-state counts taken
    every 20 virtual seconds while pods run (``sample=False`` leaves the
    event count the replay's own)."""
    WorldState.pristine().install()
    config = FleetConfig(tenants=4, nodes=8, shards=1, starts=starts, seed=0)
    samples: list[list[tuple[int, int, int, int, int]]] = []
    with observing(ObsConfig()) as session:
        env = Environment()
        replay = FleetReplayScenario(env, config, shard=0)

        def sampler():
            while True:
                yield env.timeout(20.0)
                samples.append([_node_state(k) for k in replay.scenario.kubelets])

        if sample:
            env.process(sampler())
        result = replay.run()
        events = session.counters.events_processed
    return replay.scenario, result, events, samples


def _node_state(kubelet) -> tuple[int, int, int, int, int]:
    engine = kubelet.cri.engine
    pod_cgroups = engine.kernel.cgroups.cgroup_at(kubelet.cgroup_path).children
    return (
        len(engine.runtime.containers),
        len(engine.monitors),
        len(engine.kernel.processes),
        len(pod_cgroups),
        len(kubelet._active_pods),
    )


def test_replay_retained_state_is_live_pods_not_starts():
    """What a node holds is what its live pods hold, at any start count:
    one runtime record, one conmon monitor, two processes (container and
    monitor) per container, and no pod cgroup without an active pod.
    Once every pod has finished, nothing is left but the node's init and
    the allocation's job process."""
    small = _replay_shard(200)
    large = _replay_shard(800)
    for scenario, result, _events, samples in (small, large):
        assert result.completed == result.submitted and result.leaks == []
        assert samples and any(state[0] for per_node in samples for state in per_node)
        for per_node in samples:
            for containers, monitors, processes, pod_cgroups, active in per_node:
                assert monitors == containers
                assert processes == 2 + 2 * containers
                assert pod_cgroups <= active
        for engine in scenario.engines.values():
            assert not engine.runtime.containers
            assert not engine.monitors
            assert len(engine.kernel.processes) == 2  # init + the job's user
        for kubelet in scenario.kubelets:
            cgroups = kubelet.cri.engine.kernel.cgroups
            assert not cgroups.cgroup_at(kubelet.cgroup_path).children
    # teardown moves no virtual time: the event count is the one the
    # replay had while finished pods still held their state, less the
    # empty scheduler passes that no longer queue a record
    assert _replay_shard(200, sample=False)[2] == 7189


#: simulator events per replayed pod on the 8-node, 200-start shard, an
#: exact count (7,189 events): 44.925 while every empty scheduler pass
#: queued its sleep record
REPLAY_EVENTS_PER_POD = 35.945


def test_replay_events_per_pod_ceiling():
    _scenario, result, events, _samples = _replay_shard(200, sample=False)
    assert result.submitted == 200
    assert events / result.submitted == REPLAY_EVENTS_PER_POD
