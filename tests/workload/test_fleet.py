"""Fleet workload engine: determinism, byte-identity, leaks, CLI."""

import dataclasses
import json
import pickle

import pytest

from repro.cli import main
from repro.cluster.capacity import CapacityIndex
from repro.faults import find_leaks
from repro.run import ObsConfig, observing
from repro.shard import FleetCell, run_cells
from repro.sim import Environment
from repro.workload.fleet import (
    FleetConfig,
    FleetShardEngine,
    check_fleet_report,
    check_fleet_report_file,
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
    """The test's run is its own: the counters it merges go away with it."""
    with observing(ObsConfig()):
        yield


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


@pytest.mark.parametrize("epoch", [0.25, 45.0])
@pytest.mark.parametrize("chaos", [False, True], ids=["disarmed", "chaos"])
def test_pump_matches_oracle_at_any_epoch_length(epoch, chaos, monkeypatch):
    """Coarse epochs fill each bucket with many completions, arrivals and
    starts that end inside their own epoch; the result must not depend
    on the batching grain."""
    config = dataclasses.replace(CONTENDED, epoch=epoch)
    plan = generate_fleet_plan(config, seed=3) if chaos else None
    fast = fleet_report_document(run_fleet(config, plan=plan))
    use_fleet_oracle(monkeypatch)
    assert fleet_report_document(run_fleet(config, plan=plan)) == fast


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("config", [SMALL, CONTENDED], ids=["small", "contended"])
def test_pull_table_matches_the_registry(config, jobs):
    """Metered or not, the pump answers repeated cold pulls from its
    pull table.  The reports are identical, registry pull count, cold
    pulls and pulled bytes included."""
    docs = []
    for metrics in (False, True):
        with observing(ObsConfig(metrics=metrics)):
            docs.append(fleet_report_document(run_fleet(config, jobs=jobs)))
    assert docs[0] == docs[1]
    summary = docs[0]["summary"]
    assert docs[0]["registry"]["pulls"] == summary["cold_pulls"] > 0
    assert summary["pulled_bytes"] > 0


def _traced_pulls(config, plan):
    """A traced, metered run: (report, the ``registry.pull`` spans
    without their timestamps and thread ids, the metrics snapshot)."""
    with observing(ObsConfig(trace=True, metrics=True)) as traced:
        doc = fleet_report_document(run_fleet(config, plan=plan))
        spans = [(args, dur) for _ph, name, _ts, _tid, args, dur
                 in traced.tracer.events if name == "registry.pull"]
        return doc, spans, traced.metrics.snapshot(include_sim=False)


@pytest.mark.parametrize("config", [SMALL, CONTENDED], ids=["small", "contended"])
def test_pull_table_emits_what_the_registry_would(config, monkeypatch):
    """Under chaos, with the tracer and the metrics on, a table answer
    emits the ``registry.pull`` span and the registry metrics a priced
    pull would: the engine's spans and snapshot equal the oracle's,
    which prices every cold pull through the registry."""
    plan = generate_fleet_plan(config, seed=3)
    fast = _traced_pulls(config, plan)
    doc, spans, snapshot = fast
    metered = sum(value for series, value in snapshot.items()
                  if series.startswith("registry.pulls{"))
    assert len(spans) == metered == doc["registry"]["pulls"] > 0
    use_fleet_oracle(monkeypatch)
    assert _traced_pulls(config, plan) == fast


def test_pull_table_prices_each_layer_pattern_once(monkeypatch):
    """Plain, metered, traced and armed runs alike fill the table through
    ``_cold_pull`` once per (shard, image, layer presence) outside the
    plan's registry windows; a pull inside a window is priced on its own."""
    plan = generate_fleet_plan(SMALL, seed=3)
    windows = [e for e in plan if e.point == "registry.pull"]
    priced = []
    real = FleetShardEngine._cold_pull

    def counted(self, tloc, img, node, t):
        held = self.node_layers[node]
        bits = tuple(layer in held for layer in self.catalog.layer_digests[img])
        in_window = any(e.active_at(t) for e in windows) if self._pull_windows else False
        priced.append((in_window, (self.shard, img, bits)))
        return real(self, tloc, img, node, t)

    monkeypatch.setattr(FleetShardEngine, "_cold_pull", counted)
    runs = [(ObsConfig(), None), (ObsConfig(metrics=True), None),
            (ObsConfig(trace=True, metrics=True), plan), (ObsConfig(), plan)]
    for obs, armed in runs:
        priced.clear()
        with observing(obs):
            result = run_fleet(SMALL, plan=armed)
        outside = [key for in_window, key in priced if not in_window]
        assert len(outside) == len(set(outside))
        assert len(outside) <= SMALL.shards * SMALL.images * 2 ** 3
        assert len(priced) < result.cold_pulls
        if armed is not None:
            assert len(outside) < len(priced)  # some pulls fell in a window


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
    plain, plain_counters = _run_counted(SMALL)
    series = []
    for jobs in (1, 2):
        with observing(ObsConfig()) as sampled_run:
            sampled, counters = _run_counted(SMALL, jobs=jobs, timeseries=5.0)
            assert sampled_run.recorder.samples > 0
            series.append(sampled_run.recorder.snapshot())
        assert fleet_report_document(sampled) == fleet_report_document(plain)
        assert counters == plain_counters
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


class _AuditingIndex(CapacityIndex):
    """A capacity index that runs the engine's leak audit at every
    placement decision, which the pump makes mid-epoch."""

    def alloc(self, req):
        engine = self.engine
        owed = len(engine._slot_gen) - len(engine._free_slots)
        self.audits.append((owed, bool(engine._bucket), engine.leak_descriptions()))
        return super().alloc(req)


def _undelivered(descriptions: list[str]) -> int:
    for description in descriptions:
        if description.endswith("completion(s) never delivered"):
            return int(description.split()[0])
    return 0


@pytest.mark.parametrize("chaos_seed", [None, 3], ids=["disarmed", "chaos"])
def test_mid_epoch_audit_counts_each_undelivered_completion_once(chaos_seed):
    """An audit taken while the live epoch's bucket still holds records
    counts each undelivered completion once, and does not count a record
    whose slot a crash killed."""
    config = dataclasses.replace(CONTENDED, shards=1)
    plan = None if chaos_seed is None else generate_fleet_plan(config, seed=chaos_seed)
    with observing(ObsConfig()):
        engine = FleetShardEngine(Environment(), config, shard=0, plan=plan)
        index = _AuditingIndex(engine.n_nodes, config.node_cpus)
        index.engine, index.audits = engine, []
        engine.index = index
        result = engine.run()
    assert result.leaks == []
    assert plan is None or result.crashes > 0
    # the audit ran while the live bucket still held records
    assert any(owed and in_bucket for owed, in_bucket, _ in index.audits)
    assert [_undelivered(leaks) for _, _, leaks in index.audits] == [
        owed for owed, _, _ in index.audits
    ]


class _HeadAuditingIndex(CapacityIndex):
    """A capacity index that checks the pump's hand-off precondition at
    every release carrying a queue head (no other up node has the
    head's cores free), and counts hand-offs, refusals and the allocs
    that scan and place nothing."""

    def release(self, node, req, head=0):
        if not head:
            return super().release(node, req)
        self.rivals += [n for n, free in enumerate(self.free)
                        if n != node and n not in self.down and free >= head]
        handed = super().release(node, req, head)
        self.outcomes[handed] += 1
        return handed

    def alloc(self, req):
        node = super().alloc(req)
        self.failed_allocs += node is None
        return node


@pytest.mark.parametrize("chaos_seed, failed_allocs", [
    (None, 177),  # 334 before completions handed their cores to the head
    (3, 182),     # 339 before
], ids=["disarmed", "chaos"])
def test_completion_hands_the_head_the_only_fitting_node(chaos_seed, failed_allocs):
    """While starts are queued, every up node has fewer free cores than
    the head asks for, so a completion's node is the head's only
    possible fit.  Both outcomes occur, and the allocs that scan every
    bucket and place nothing stay at their pinned count."""
    plan = None if chaos_seed is None else generate_fleet_plan(CONTENDED, seed=chaos_seed)
    rivals, outcomes, failed = [], [0, 0], 0
    with observing(ObsConfig()):
        for shard in range(CONTENDED.effective_shards):
            engine = FleetShardEngine(Environment(), CONTENDED, shard=shard, plan=plan)
            index = _HeadAuditingIndex(engine.n_nodes, CONTENDED.node_cpus)
            index.rivals, index.outcomes, index.failed_allocs = rivals, outcomes, 0
            engine.index = index
            result = engine.run()
            assert result.leaks == []
            assert plan is None or result.crashes > 0
            failed += index.failed_allocs
    assert rivals == []
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert failed == failed_allocs


# -- pressure counters --------------------------------------------------------

def test_fleet_surfaces_queue_and_liveness_peaks(monkeypatch):
    with observing(ObsConfig()) as counted:
        run_fleet(SMALL)
        snap = counted.counters.snapshot()
    assert snap["event_queue_peak"] > 0
    assert snap["live_objects_peak"] > 0
    # the one-event-per-start oracle reports the same pressure
    use_fleet_oracle(monkeypatch)
    with observing(ObsConfig()) as counted:
        run_fleet(SMALL)
        oracle_snap = counted.counters.snapshot()
    assert oracle_snap["live_objects_peak"] == snap["live_objects_peak"]


# -- shard cells --------------------------------------------------------------

# -- report reader -------------------------------------------------------------

def _chaos_document():
    """A chaos fleet run's ``--out`` document, read back from JSON."""
    result = run_fleet(SMALL, plan=generate_fleet_plan(SMALL, seed=3))
    return json.loads(json.dumps(fleet_report_document(result)))


def test_fleet_report_passes_the_strict_shape_check(tmp_path):
    doc = _chaos_document()
    assert doc["faults"]["injected"]  # the check covers a live faults section
    assert check_fleet_report(doc) == []
    assert check_fleet_report(json.loads(json.dumps(fleet_report_document(run_fleet(SMALL))))) == []
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(doc))
    assert check_fleet_report_file(str(path)) == 0


def _first_kind(doc):
    return sorted(doc["faults"]["injected"])[0]


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (lambda d: d.update(extra=1), "unexpected key 'extra'"),
        (lambda d: d["summary"].pop("requeues"), "missing key 'requeues'"),
        (lambda d: d["summary"].update(starts=400.0), "summary.starts: expected int"),
        (lambda d: d["summary"].update(warm_rate=1), "warm_rate: expected float"),
        (lambda d: d["registry"].update(pulls=True), "registry.pulls: expected int"),
        (lambda d: d["faults"]["retries"].update(x="1"), "retries.x: expected int"),
        (lambda d: d["wait_histogram"]["counts"].pop(), "wait_histogram"),
        (lambda d: d.update(schema="repro-fleet-report/1"), "report.schema"),
        (lambda d: d["config"].update(tenants=0), "report.config"),
        (lambda d: d["config"].update(colour="blue"), "report.config"),
        (lambda d: d["faults"]["first_injected_at"].pop(_first_kind(d)), "report.faults"),
        (lambda d: d["faults"]["injected"].update({_first_kind(d): 0}), "positive count"),
        (lambda d: d["tenant_columns"].reverse(), "report.tenant_columns"),
        (lambda d: d["tenants"][0].pop(), "report.tenants[0]: expected 9 columns"),
        (lambda d: d["tenants"][1].__setitem__(6, 0), "tenants[1].wait_sum_s: expected float"),
    ],
)
def test_fleet_report_shape_check_rejects_drift(tamper, expected):
    doc = _chaos_document()
    tamper(doc)
    problems = check_fleet_report(doc)
    assert any(expected in p for p in problems), problems


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
