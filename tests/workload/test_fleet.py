"""Fleet workload engine: determinism, byte-identity, leaks, CLI."""

import dataclasses
import json
import pickle

import pytest

from repro.cli import main
from repro.faults import find_leaks
from repro.shard import FleetCell, ObsConfig, run_cells
from repro.sim import Environment
from repro.sim import profile
from repro.workload.fleet import (
    FleetConfig,
    FleetShardEngine,
    fleet_cells,
    fleet_report_document,
    generate_fleet_plan,
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("unpack_bandwidth", 0.0),
    ("unpack_bandwidth", INF),
    ("duration_mean", -5.0),
    ("epoch", NAN),
    ("day", INF),
    ("amplitude", 1.5),
    ("amplitude", -0.1),
    ("warm_start_s", -1.0),
    ("cpu_shares", (0.5, -0.3, 0.2)),
    ("cpu_shares", (0.0, 0.0, 0.0)),
    ("zipf_s", NAN),
    ("zipf_s", -1.0),
    ("tenant_skew", NAN),
    ("tenant_skew", -0.5),
])
def test_config_rejects_out_of_range_reals_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(SMALL, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("tenants", 4.0),
    ("nodes", 8.5),
    ("starts", True),
    ("shards", "2"),
    ("seed", 1.5),
    ("images", None),
    ("node_cpus", 8.0),
    ("cpu_choices", [1, 2.0, 4]),
    ("tenants", 0),
    ("nodes", 0),
    ("images", 0),
])
def test_config_rejects_non_integer_or_zero_counts_naming_the_field(field, value):
    """Through ``from_json`` a float count used to crash later inside
    ``range()``, ``starts: true`` ran one start and ``seed: 1.5`` ran."""
    data = json.loads(SMALL.to_json())
    data[field] = value
    with pytest.raises(ValueError, match=f"^{field} must"):
        FleetConfig.from_json(json.dumps(data))


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


def _run_counted(config, jobs=1, plan=None, timeseries=None):
    """Run a fleet through the shard runner: (merged result, merged
    profile counters)."""
    shard = run_cells(fleet_cells(config, plan=plan), jobs=jobs,
                      obs=ObsConfig(timeseries=timeseries))
    return merge_shard_results(shard.values(), config), shard.profile


def test_parallel_jobs_byte_identical(_profile_clean):
    serial, serial_counters = _run_counted(SMALL)
    pooled, pooled_counters = _run_counted(SMALL, jobs=2)
    assert fleet_report_document(serial) == fleet_report_document(pooled)
    assert render_fleet_summary(serial) == render_fleet_summary(pooled)
    # the merged profile counters are placement-invariant too
    assert pooled_counters == serial_counters


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


# -- machine-independent cost and cache economics ---------------------------

@pytest.mark.parametrize("config, chaos_seed, ceiling", [
    # one shard: every placement faces the whole 10k-node pool
    pytest.param(FleetConfig(tenants=64, nodes=10_000, starts=100_000, shards=1),
                 None, 2_426, id="one-shard-10k-nodes"),
    pytest.param(FleetConfig(tenants=256, nodes=2_000, starts=100_000, shards=8),
                 None, 17_396, id="eight-shards"),
    pytest.param(FleetConfig(tenants=64, nodes=1_000, starts=100_000, shards=4),
                 3, 12_697, id="chaos-seed-3"),
])
def test_epoch_batching_bounds_simulator_events(config, chaos_seed, ceiling,
                                                _profile_clean):
    """100k starts cost a bounded number of simulator events, one per
    non-empty epoch rather than one per arrival and completion.  Each
    ceiling is the count when it was set (1,941 / 13,917 / 10,158) plus
    25%; the 1M-start flagship runs the same engine at 27,131 events."""
    plan = None if chaos_seed is None else generate_fleet_plan(config, seed=chaos_seed)
    result, counters = _run_counted(config, plan=plan)
    assert result.leaks == []
    assert counters["event_queue_peak"] > 0 and counters["live_objects_peak"] > 0
    assert counters["events_processed"] <= ceiling
    if plan is not None:
        assert result.crashes > 0 and result.requeues > 0


def test_sampling_leaves_report_and_counters_unchanged(_profile_clean):
    """Time-series sampling rides the epoch loop: it records points but
    changes neither the report nor the merged counters, serial or pooled."""
    from repro.obs.timeseries import recorder

    plain, plain_counters = _run_counted(SMALL)
    series = []
    for jobs in (1, 2):
        recorder.reset()
        sampled, counters = _run_counted(SMALL, jobs=jobs, timeseries=5.0)
        assert fleet_report_document(sampled) == fleet_report_document(plain)
        assert counters == plain_counters
        assert recorder.samples > 0
        series.append(recorder.snapshot())
    recorder.reset()
    assert series[0] and series[1] == series[0]


def test_warm_rate_rises_and_pulled_bytes_fall_with_zipf_skew(_profile_clean):
    """§4 cache economics: the more skewed image popularity is, the
    hotter the node caches and the fewer bytes the registry serves."""
    config = FleetConfig(tenants=16, nodes=64, starts=5000, shards=2)
    results = [_run_counted(dataclasses.replace(config, zipf_s=s))[0]
               for s in (0.6, 1.1, 1.6)]
    warm = [r.warm_rate for r in results]
    pulled = [r.pulled_bytes for r in results]
    assert warm[0] < warm[1] < warm[2], warm
    assert pulled[0] > pulled[1] > pulled[2], pulled


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
    assert main(["fleet", "--zipf", "nan"]) == 2
    assert "bad fleet config: zipf_s" in capsys.readouterr().err
