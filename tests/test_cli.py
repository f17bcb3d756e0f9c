"""Tests for the CLI."""

import json

import pytest

from repro.cli import main
from repro.faults.chaos import check_chaos_report
from repro.obs.metrics import check_metrics_file
from repro.obs.slo import check_slo_scorecard_file
from repro.obs.timeseries import check_timeseries_file
from repro.run import PARTS, ObsConfig, observing


def test_tables_all(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 5" in out
    assert "docker" in out and "harbor" in out


def test_tables_single(capsys):
    assert main(["tables", "3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "Table 1" not in out


def test_decide(capsys):
    assert main(["decide", "hardened"]) == 0
    out = capsys.readouterr().out
    assert "security-hardened-center" in out
    assert "apptainer" in out


def test_decide_with_tables(capsys):
    assert main(["decide", "conservative", "--tables"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_scenarios_small(capsys):
    assert main(["scenarios", "--nodes", "2", "--pods", "2"]) == 0
    out = capsys.readouterr().out
    assert "kubelet-in-allocation" in out
    assert "§6.6" in out


def test_startup(capsys):
    assert main(["startup"]) == 0
    out = capsys.readouterr().out
    for engine in ("docker", "sarus", "enroot"):
        assert engine in out


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["bogus"])


# -- observability subcommands ------------------------------------------------


@pytest.fixture
def _obs_clean():
    """The test's run is its own: nothing a verb leaves behind outlives it."""
    with observing(ObsConfig()):
        yield


def test_trace_subcommand_writes_valid_trace(tmp_path, capsys, _obs_clean):
    from repro.obs.export import validate_file

    out = tmp_path / "trace.json"
    code = main(["trace", "kubelet_in_allocation", "--out", str(out),
                 "--nodes", "2", "--pods", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "subsystems" in stdout and "perfetto" in stdout
    assert validate_file(str(out)) == 0


def test_trace_subcommand_accepts_hyphenated_name(tmp_path, _obs_clean):
    out = tmp_path / "trace.json"
    assert main(["trace", "kubelet-in-allocation", "--out", str(out),
                 "--nodes", "2", "--pods", "2"]) == 0
    assert out.exists()


def test_trace_subcommand_rejects_unknown_scenario(tmp_path, capsys, _obs_clean):
    assert main(["trace", "bogus", "--out", str(tmp_path / "t.json")]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenarios_metrics_flag(capsys, _obs_clean):
    assert main(["scenarios", "--nodes", "2", "--pods", "2", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "metric" in out
    assert "sim.events_processed" in out
    assert "k8s.pods_started" in out


def test_startup_metrics_flag(capsys, _obs_clean):
    assert main(["startup", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert 'engine.pulls{engine="docker"}' in out
    assert 'monitor.background_cpu_fraction{monitor="dockerd"}' in out


# -- sharded execution (--jobs / --seeds / --list) ----------------------------


def test_scenarios_list(capsys):
    assert main(["scenarios", "--list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == sorted(out.splitlines())
    assert "kubelet-in-allocation" in out


def test_chaos_list(capsys):
    assert main(["chaos", "--list"]) == 0
    assert "kubelet-in-allocation" in capsys.readouterr().out


def test_chaos_without_scenario_errors(capsys):
    assert main(["chaos"]) == 2
    assert "scenario name" in capsys.readouterr().err


def test_scenarios_jobs_output_identical(capsys, _obs_clean):
    assert main(["scenarios", "--nodes", "2", "--pods", "2"]) == 0
    serial = capsys.readouterr().out
    assert main(["scenarios", "--nodes", "2", "--pods", "2", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_chaos_sweep_report_and_trace(tmp_path, capsys, _obs_clean):
    report = tmp_path / "report.json"
    trace = tmp_path / "trace.json"
    assert main([
        "chaos", "kubelet-in-allocation", "--seeds", "0..2",
        "--nodes", "2", "--pods", "2",
        "--trace", str(trace), "--out", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos sweep: kubelet-in-allocation seeds 0..2 (3 run(s))" in out
    doc = json.loads(report.read_text())
    assert check_chaos_report(doc) == []
    assert doc["seeds"] == [0, 1, 2]
    assert len(doc["reports"]) == 3
    assert doc["aggregate"]["runs"] == 3
    assert doc["aggregate"]["clean"] is True
    assert json.loads(trace.read_text())["traceEvents"]


def test_chaos_sweep_jobs_artifacts_identical(tmp_path, capsys, _obs_clean):
    def run(jobs):
        report = tmp_path / f"report{jobs}.json"
        trace = tmp_path / f"trace{jobs}.json"
        assert main([
            "chaos", "kubelet-in-allocation", "--seeds", "0..3",
            "--nodes", "2", "--pods", "2", "--jobs", str(jobs),
            "--trace", str(trace), "--out", str(report),
        ]) == 0
        return capsys.readouterr().out, report.read_bytes(), trace.read_bytes()

    serial_out, serial_report, serial_trace = run(1)
    sharded_out, sharded_report, sharded_trace = run(4)
    assert sharded_report == serial_report
    assert sharded_trace == serial_trace
    # stdout differs only in the artifact paths we chose above
    assert ([l for l in sharded_out.splitlines() if str(tmp_path) not in l]
            == [l for l in serial_out.splitlines() if str(tmp_path) not in l])


def test_chaos_sweep_rejects_save_plan(tmp_path, capsys):
    assert main([
        "chaos", "kubelet-in-allocation", "--seeds", "0..1",
        "--save-plan", str(tmp_path / "plan.json"),
    ]) == 2
    assert "--save-plan" in capsys.readouterr().err


def test_chaos_single_seed_writes_report(tmp_path, capsys, _obs_clean):
    report = tmp_path / "report.json"
    assert main([
        "chaos", "kubelet-in-allocation", "--seed", "7",
        "--nodes", "2", "--pods", "2",
        "--trace", str(tmp_path / "t.json"), "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text())
    assert check_chaos_report(doc) == []
    assert doc["seeds"] == [7]
    assert doc["reports"][0]["scenario"] == "kubelet-in-allocation"


# -- slo / time-series flags --------------------------------------------------


def test_slo_writes_scorecard_and_timeseries(tmp_path, capsys, _obs_clean):
    scorecard = tmp_path / "scorecard.json"
    series = tmp_path / "series.json"
    code = main(["slo", "kubelet-in-allocation", "--seed", "42",
                 "--out", str(scorecard), "--timeseries", str(series)])
    assert code == 0
    out = capsys.readouterr().out
    assert "SLO scorecard: kubelet-in-allocation" in out
    assert "detection latency" in out
    assert check_slo_scorecard_file(str(scorecard)) == 0
    doc = json.loads(scorecard.read_text())
    assert doc["schema"] == "repro-slo-scorecard/1"
    assert doc["interval"] == 5.0
    assert doc["detection"].get("node_crash") is not None
    assert check_timeseries_file(str(series)) == 0
    ts = json.loads(series.read_text())
    assert ts["samples"] > 0
    assert any(name.startswith("wlm.") for name in ts["series"])


def test_slo_double_run_byte_identical(tmp_path, capsys, _obs_clean):
    def run(tag):
        scorecard = tmp_path / f"sc{tag}.json"
        assert main(["slo", "kubelet-in-allocation", "--seed", "3",
                     "--nodes", "2", "--pods", "2",
                     "--out", str(scorecard)]) == 0
        return capsys.readouterr().out, scorecard.read_bytes()

    out_1, bytes_1 = run(1)
    out_2, bytes_2 = run(2)
    assert bytes_1 == bytes_2
    assert ([l for l in out_1.splitlines() if str(tmp_path) not in l]
            == [l for l in out_2.splitlines() if str(tmp_path) not in l])


def test_slo_list_and_missing_scenario(capsys, _obs_clean):
    assert main(["slo", "--list"]) == 0
    assert "kubelet-in-allocation" in capsys.readouterr().out
    assert main(["slo"]) == 2
    assert "scenario name" in capsys.readouterr().err


def test_slo_accepts_rules_file(tmp_path, capsys, _obs_clean):
    from repro.obs.slo import SloRule, SloRuleSet

    rules = tmp_path / "rules.json"
    SloRuleSet([SloRule(name="only-requeues", series="wlm.job_requeues.rate",
                        value=0.0)]).to_file(str(rules))
    assert main(["slo", "kubelet-in-allocation", "--seed", "42",
                 "--rules", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "only-requeues" in out
    assert "retry-storm" not in out  # default rules were replaced


def test_chaos_sample_interval_reports_detection(tmp_path, capsys, _obs_clean):
    assert main(["chaos", "kubelet-in-allocation", "--seed", "42",
                 "--sample-interval", "5",
                 "--trace", str(tmp_path / "t.json")]) == 0
    out = capsys.readouterr().out
    assert "alerts fired:" in out
    assert "node_crash=" in out
    doc = json.loads((tmp_path / "t.json").read_text())
    assert any(e.get("name") == "slo.alert" for e in doc["traceEvents"])


def test_chaos_sweep_timeseries_jobs_identical(tmp_path, capsys, _obs_clean):
    def run(jobs):
        series = tmp_path / f"series{jobs}.json"
        assert main([
            "chaos", "kubelet-in-allocation", "--seeds", "0..2",
            "--nodes", "2", "--pods", "2", "--jobs", str(jobs),
            "--sample-interval", "10", "--metrics",
            "--trace", str(tmp_path / f"t{jobs}.json"),
            "--timeseries", str(series),
        ]) == 0
        capsys.readouterr()
        assert check_timeseries_file(str(series)) == 0
        return series.read_bytes()

    serial = run(1)
    assert json.loads(serial)["series"]
    assert run(2) == serial


def test_metrics_out_roundtrip(tmp_path, _obs_clean):
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    argv = ["scenarios", "--nodes", "2", "--pods", "2"]
    assert main([*argv, "--metrics-out", str(first)]) == 0
    assert main([*argv, "--metrics-out", str(second)]) == 0
    assert check_metrics_file(str(first)) == 0
    doc = json.loads(first.read_text())
    assert any(k.startswith("k8s.pods_started") for k in doc["series"])
    assert first.read_bytes() == second.read_bytes()


def test_startup_metrics_out(tmp_path, capsys, _obs_clean):
    path = tmp_path / "metrics.json"
    assert main(["startup", "--metrics-out", str(path)]) == 0
    capsys.readouterr()
    assert check_metrics_file(str(path)) == 0
    doc = json.loads(path.read_text())
    assert any(k.startswith("engine.pulls") for k in doc["series"])


def test_fleet_timeseries_includes_tenant_series(tmp_path, capsys, _obs_clean):
    path = tmp_path / "series.json"
    assert main(["fleet", "--tenants", "4", "--nodes", "8", "--starts", "200",
                 "--shards", "2", "--day", "300",
                 "--sample-interval", "10", "--timeseries", str(path)]) == 0
    capsys.readouterr()
    assert check_timeseries_file(str(path)) == 0
    doc = json.loads(path.read_text())
    names = list(doc["series"])
    assert any(n.startswith("fleet.pending{shard=") for n in names)
    # 4 tenants is under the per-tenant cap, so tenant series exist
    assert any(n.startswith("fleet.tenant.starts{tenant=") for n in names)


def test_replay_timeseries_out(tmp_path, capsys, _obs_clean):
    path = tmp_path / "series.json"
    assert main(["replay", "--tenants", "2", "--nodes", "4", "--starts", "30",
                 "--shards", "2", "--day", "300",
                 "--timeseries", str(path)]) == 0
    capsys.readouterr()
    assert check_timeseries_file(str(path)) == 0
    doc = json.loads(path.read_text())
    assert any(n.startswith("replay.inflight{shard=") for n in doc["series"])


# -- one observation session per verb -----------------------------------------

SMALL_SCENARIO = ["kubelet_in_allocation", "--nodes", "2", "--pods", "2"]
SMALL_FLEET = ["--tenants", "4", "--nodes", "8", "--starts", "60", "--shards", "2"]


@pytest.mark.parametrize("argv", [
    ["trace", *SMALL_SCENARIO, "--out", "{tmp}/t.json"],
    ["chaos", *SMALL_SCENARIO, "--seed", "3", "--trace", "{tmp}/t.json"],
    ["chaos", *SMALL_SCENARIO, "--seeds", "0..1", "--trace", "{tmp}/t.json",
     "--metrics-out", "{tmp}/m.json", "--timeseries", "{tmp}/ts.json"],
    ["slo", *SMALL_SCENARIO, "--seed", "3"],
    ["scenarios", "--nodes", "2", "--pods", "2", "--metrics-out", "{tmp}/m.json"],
    ["startup", "--metrics-out", "{tmp}/m.json"],
    ["fleet", *SMALL_FLEET, "--slo"],
    ["replay", *SMALL_FLEET, "--timeseries", "{tmp}/ts.json"],
], ids=["trace", "chaos", "chaos-seeds", "slo", "scenarios", "startup",
        "fleet-slo", "replay"])
def test_verbs_leave_every_sink_disabled_and_empty(argv, tmp_path, capsys, idle_run):
    """Each verb records into a run of its own: afterwards the idle run
    it found is back — the same five parts, still off and empty."""
    parts = tuple(getattr(idle_run, name) for name in PARTS)
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 0
    capsys.readouterr()
    if (tmp_path / "m.json").exists():
        assert check_metrics_file(str(tmp_path / "m.json")) == 0
    if (tmp_path / "ts.json").exists():
        assert check_timeseries_file(str(tmp_path / "ts.json")) == 0
    assert all(getattr(idle_run, name) is part for name, part in zip(PARTS, parts))
    assert not any(part.enabled for part in parts)
    assert not any(idle_run.counters.snapshot().values())
    assert idle_run.metrics.snapshot(include_sim=False) == {}
    assert len(idle_run.tracer) == 0
    assert idle_run.recorder.snapshot() == {}


@pytest.mark.parametrize("argv, interval", [
    (["fleet", "--tenants", "4", "--nodes", "8", "--starts", "200", "--shards", "2",
      "--sample-interval", "30"], 30.0),
    (["replay", *SMALL_FLEET, "--sample-interval", "20"], 20.0),
    # the sweep samples registry series, so it needs the registry armed
    (["chaos", *SMALL_SCENARIO, "--seeds", "0..1", "--sample-interval", "20",
      "--metrics"], 20.0),
], ids=["fleet", "replay", "chaos-seeds"])
def test_sharded_timeseries_document_names_its_interval(argv, interval, tmp_path,
                                                        capsys, _obs_clean):
    """Merged shard samples used to be exported under the default 5 s
    interval whatever grid the cells sampled on."""
    path = tmp_path / "series.json"
    assert main([*argv, "--timeseries", str(path),
                 *(["--trace", str(tmp_path / "t.json")] if argv[0] == "chaos" else [])]) == 0
    capsys.readouterr()
    assert check_timeseries_file(str(path)) == 0
    doc = json.loads(path.read_text())
    assert doc["interval"] == interval
    # merged cells append their rings one after another, so time resets
    # between cells; within a cell points sit one interval apart
    gaps = {b[0] - a[0] for points in doc["series"].values()
            for a, b in zip(points, points[1:])}
    assert min(gap for gap in gaps if gap > 0) == interval


@pytest.mark.parametrize("verb", [
    ["slo", *SMALL_SCENARIO],
    ["fleet", *SMALL_FLEET, "--slo"],
], ids=["slo", "fleet-slo"])
@pytest.mark.parametrize("rules, needle", [
    (None, "No such file"),
    ({"rules": [{"name": "x"}]}, "threshold rules need a series"),
    ({"rules": [{"series": "fleet.pending"}]}, "'name'"),
    ({"rules": "fleet.pending > 0"}, "'rules'"),
    ({"rules": [{"name": "x", "series": "s", "value": "abc"}]}, "rule 'x': 'value'"),
    ({"rules": [{"name": "x", "series": "s", "for_s": None}]}, "rule 'x': 'for_s'"),
    ({"rules": [{"name": "x", "kind": "error_ratio", "numerator": "n",
                 "denominator": "d", "window_s": "5m"}]}, "rule 'x': 'window_s'"),
    ({"rules": [{"name": "x", "kind": "burn_rate", "numerator": "n",
                 "denominator": "d", "objective": [0.9]}]}, "rule 'x': 'objective'"),
], ids=["missing", "no-series", "no-name", "not-a-list", "bad-value", "bad-for_s",
        "bad-window_s", "bad-objective"])
def test_cli_reports_bad_slo_rules(verb, rules, needle, tmp_path, capsys):
    path = tmp_path / "rules.json"
    if rules is not None:
        path.write_text(json.dumps(rules))
    assert main([*verb, "--rules", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad SLO rules:") and needle in captured.err
    assert captured.out == ""


def test_chaos_sweep_timeseries_needs_the_metrics_registry(tmp_path, capsys):
    """The sweep's sampled series come off the metrics registry, so
    ``--timeseries`` without ``--metrics``/``--metrics-out`` used to write
    a document with no series; it now exits 2 naming both flags."""
    path = tmp_path / "series.json"
    assert main(["chaos", *SMALL_SCENARIO, "--seeds", "0..1",
                 "--timeseries", str(path)]) == 2
    captured = capsys.readouterr()
    assert "--metrics" in captured.err and "--metrics-out" in captured.err
    assert captured.out == "" and not path.exists()


@pytest.mark.parametrize("argv, flag", [
    (["scenarios", "--nodes", "0"], "--nodes"),
    (["chaos", *SMALL_SCENARIO, "--nodes", "0"], "--nodes"),
    (["chaos", *SMALL_SCENARIO, "--seeds", "0..1", "--nodes", "0"], "--nodes"),
    (["slo", *SMALL_SCENARIO, "--nodes", "0"], "--nodes"),
    (["trace", *SMALL_SCENARIO, "--nodes", "0"], "--nodes"),
    (["scenarios", "--pods", "-1"], "--pods"),
    (["chaos", *SMALL_SCENARIO, "--pods", "-1"], "--pods"),
    (["scenarios", "--jobs", "0"], "--jobs"),
    (["chaos", *SMALL_SCENARIO, "--seeds", "0..1", "--jobs", "-3"], "--jobs"),
    (["fleet", *SMALL_FLEET, "--jobs", "0"], "--jobs"),
], ids=["scenarios-nodes", "chaos-nodes", "chaos-seeds-nodes", "slo-nodes",
        "trace-nodes", "scenarios-pods", "chaos-pods", "scenarios-jobs",
        "chaos-seeds-jobs", "fleet-jobs"])
def test_cli_rejects_bad_shape_flags(argv, flag, capsys):
    """``--nodes 0`` used to die in an IndexError traceback, and a
    negative ``--pods`` or non-positive ``--jobs`` ran anyway."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be >= " in captured.err
    assert captured.out == ""


def test_cli_accepts_zero_pods(capsys, _obs_clean):
    assert main(["scenarios", "--nodes", "1", "--pods", "0"]) == 0
    assert "0 pods on 1 nodes" in capsys.readouterr().out


def test_cli_rejects_non_positive_sample_interval(tmp_path, capsys):
    series = tmp_path / "ts.json"
    for verb in (["chaos", *SMALL_SCENARIO], ["slo", *SMALL_SCENARIO],
                 ["fleet", *SMALL_FLEET], ["replay", *SMALL_FLEET]):
        for value in ("0", "-1", "nan", "inf"):
            args = [*verb, "--sample-interval", value, "--timeseries", str(series)]
            assert main(args) == 2, args
            err = capsys.readouterr().err
            assert "--sample-interval must be positive and finite" in err, args
            assert not series.exists(), args


@pytest.mark.parametrize("verb", [
    ["chaos", "bridge-operator", "--seed", "1", "--trace", "{tmp}/t.json"],
    ["chaos", "bridge-operator", "--seeds", "0..1", "--metrics", "--trace", "{tmp}/t.json"],
    ["slo", *SMALL_SCENARIO, "--seed", "1"],
    ["fleet", *SMALL_FLEET],
    ["replay", *SMALL_FLEET],
], ids=["chaos", "chaos-seeds", "slo", "fleet", "replay"])
def test_cli_samples_at_a_tenth_of_a_second(verb, tmp_path, capsys, _obs_clean):
    """At 0.1 s the sampler used to stamp ``floor(4.3 / 0.1) * 0.1 = 4.2``,
    find the next tick due at 4.3 and re-sample t = 4.3 forever."""
    series = tmp_path / "ts.json"
    verb = [arg.replace("{tmp}", str(tmp_path)) for arg in verb]
    assert main([*verb, "--sample-interval", "0.1", "--timeseries", str(series)]) == 0
    capsys.readouterr()
    assert check_timeseries_file(str(series)) == 0
    assert json.loads(series.read_text())["interval"] == 0.1
