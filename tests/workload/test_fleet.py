"""Fleet workload engine: determinism, byte-identity, leaks, CLI."""

import dataclasses
import json
import pickle

import pytest

from repro.cli import main
from repro.faults import find_leaks
from repro.shard import FleetCell, run_cells
from repro.sim import Environment
from repro.sim import profile
from repro.workload.fleet import (
    FleetConfig,
    FleetShardEngine,
    fleet_cells,
    fleet_report_document,
    merge_shard_results,
    render_fleet_summary,
    run_fleet,
)

from tests.oracles.fleet import use_fleet_oracle

#: small enough for unit tests, big enough to exercise queueing + cold pulls
SMALL = FleetConfig(tenants=8, nodes=16, starts=400, images=6, shards=4)
#: a few nodes under a long queue: completion order decides placements
CONTENDED = FleetConfig(tenants=8, nodes=4, starts=600, images=6, shards=2,
                        day=600.0)


@pytest.fixture()
def _profile_clean():
    yield
    profile.disable()
    profile.counters.reset()


# -- config -------------------------------------------------------------------

def test_config_json_roundtrip():
    config = dataclasses.replace(SMALL, zipf_s=1.7)
    assert FleetConfig.from_json(config.to_json()) == config
    # the retired engine-mode key is still written, always false
    assert json.loads(config.to_json())["naive"] is False
    data = json.loads(config.to_json())
    data["naive"] = True
    with pytest.raises(ValueError, match="naive"):
        FleetConfig.from_json(json.dumps(data))
    data["naive"] = False
    data["epochs"] = 2.0
    with pytest.raises(ValueError, match="epochs"):
        FleetConfig.from_json(json.dumps(data))


@pytest.mark.parametrize("bad", [
    dict(tenants=0),
    dict(starts=-1),
    dict(cpu_choices=(16,)),                 # exceeds node_cpus=8
    dict(cpu_choices=(1, 2), cpu_shares=(1.0,)),
    dict(epoch=0.0),
    dict(shards=0),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, **bad)


def test_shard_partition_is_exact():
    config = dataclasses.replace(SMALL, tenants=11, nodes=29, starts=997, shards=4)
    shards = config.effective_shards
    tenant_sets = [set(config.shard_tenant_ids(s)) for s in range(shards)]
    union = set().union(*tenant_sets)
    assert union == set(range(config.tenants))
    assert sum(len(t) for t in tenant_sets) == config.tenants
    assert sum(config.shard_node_count(s) for s in range(shards)) == config.nodes
    assert sum(config.shard_start_counts()) == config.starts


# -- determinism + byte-identity ---------------------------------------------

def test_double_run_is_deterministic():
    first = fleet_report_document(run_fleet(SMALL))
    second = fleet_report_document(run_fleet(SMALL))
    assert first == second


def test_naive_mode_matches_optimized_engine(monkeypatch):
    """The epoch pump equals the one-event-per-start oracle, byte for byte."""
    fast = [fleet_report_document(run_fleet(c)) for c in (SMALL, CONTENDED)]
    assert fast[1]["summary"]["pending_peak"] > 100
    use_fleet_oracle(monkeypatch)
    assert [fleet_report_document(run_fleet(c)) for c in (SMALL, CONTENDED)] == fast


def test_parallel_jobs_byte_identical():
    serial = run_fleet(SMALL, jobs=1)
    pooled = run_fleet(SMALL, jobs=2)
    assert fleet_report_document(serial) == fleet_report_document(pooled)
    assert render_fleet_summary(serial) == render_fleet_summary(pooled)


def test_fleet_completes_everything_without_leaks():
    result = run_fleet(SMALL)
    assert result.leaks == []
    assert result.starts == SMALL.starts
    assert result.completions + result.failed == result.starts
    assert result.warm_starts + result.cold_pulls + result.failed == result.starts
    # the shared-base catalog must actually deduplicate pushed blobs
    assert result.registry_pushes == SMALL.tenants * SMALL.images
    assert result.blob_uploads_skipped > 0
    assert result.stored_bytes <= result.quota_used


# -- leak audit (repro.faults) ------------------------------------------------

def test_find_leaks_clean_on_drained_engine():
    engine = FleetShardEngine(
        Environment(), dataclasses.replace(SMALL, shards=1), shard=0
    )
    engine.run()
    assert find_leaks(engine) == []


def test_find_leaks_reports_injected_capacity_leak():
    engine = FleetShardEngine(
        Environment(), dataclasses.replace(SMALL, shards=1), shard=0
    )
    engine.run()
    engine.index.alloc(2)  # a claim nobody will ever release
    leaks = find_leaks(engine)
    assert leaks and "capacity leak" in leaks[0]


def test_find_leaks_reports_stuck_slot_and_queue():
    engine = FleetShardEngine(
        Environment(), dataclasses.replace(SMALL, shards=1), shard=0
    )
    engine.run()
    engine._live = 1
    engine._pending.append((0, 0.0))
    descriptions = " / ".join(find_leaks(engine))
    assert "still live" in descriptions and "still queued" in descriptions


# -- pressure counters --------------------------------------------------------

def test_fleet_surfaces_queue_and_liveness_peaks(_profile_clean, monkeypatch):
    profile.counters.reset()
    run_fleet(SMALL)
    snap = profile.counters.snapshot()
    assert snap["event_queue_peak"] > 0
    assert snap["live_objects_peak"] > 0
    # the one-event-per-start oracle reports the same pressure
    profile.counters.reset()
    use_fleet_oracle(monkeypatch)
    run_fleet(SMALL)
    oracle_snap = profile.counters.snapshot()
    assert oracle_snap["live_objects_peak"] == snap["live_objects_peak"]


# -- shard cells --------------------------------------------------------------

def test_fleet_cells_pickle_and_label():
    cells = fleet_cells(SMALL)
    assert len(cells) == SMALL.effective_shards
    assert [c.label for c in cells] == [
        f"fleet-shard={s}" for s in range(len(cells))
    ]
    restored = pickle.loads(pickle.dumps(cells))
    assert restored == cells


def test_fleet_cells_merge_matches_run_fleet():
    shard = run_cells(fleet_cells(SMALL), jobs=1)
    merged = merge_shard_results(shard.values(), SMALL)
    assert fleet_report_document(merged) == fleet_report_document(run_fleet(SMALL))


# -- CLI ----------------------------------------------------------------------

FLEET_ARGS = ["fleet", "--tenants", "4", "--nodes", "8", "--starts", "150",
              "--images", "4", "--shards", "2"]


def test_cli_fleet_runs_and_reports(capsys, tmp_path):
    out = tmp_path / "fleet.json"
    assert main([*FLEET_ARGS, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "fleet: 8 nodes / 4 tenants / 150 starts" in stdout
    assert "leaks:      none" in stdout
    report = json.loads(out.read_text())
    assert report["schema"] == "repro-fleet-report/2"
    assert report["summary"]["starts"] == 150
    assert report["leaks"] == []


def test_cli_fleet_jobs_output_identical(capsys, tmp_path):
    def run(subdir, extra=()):
        out = tmp_path / subdir / "fleet.json"
        out.parent.mkdir()
        assert main([*FLEET_ARGS, *extra, "--out", str(out)]) == 0
        # drop the line echoing the per-run output path
        stdout = "\n".join(
            line for line in capsys.readouterr().out.splitlines()
            if str(out) not in line
        )
        return stdout, out.read_text()

    serial_stdout, serial_report = run("serial")
    pooled_stdout, pooled_report = run("pooled", ("--jobs", "2"))
    assert serial_stdout == pooled_stdout
    assert serial_report == pooled_report


def test_cli_fleet_rejects_bad_config(capsys):
    assert main(["fleet", "--tenants", "0"]) == 2
    assert "bad fleet config" in capsys.readouterr().err
