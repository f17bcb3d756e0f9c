"""Fleet→scenario replay bridge: determinism, parallel identity, and
equivalence with the linear control-plane oracles on a small fleet."""

import json

from repro.scenarios.fleet_replay import (
    replay_report_document,
    run_fleet_replay,
)
from repro.workload.fleet import FleetConfig

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
