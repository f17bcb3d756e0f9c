"""Chaos runs: determinism, the CLI verb, and the no-leak property."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.chaos import check_chaos_report, run_chaos
from repro.run import ObsConfig, observing
from repro.scenarios import KubeletInAllocationScenario, KubernetesInWLMScenario


def crash_plan(seed=42, n_nodes=4):
    nodes = [f"nid{i:04}" for i in range(n_nodes)]
    return FaultPlan.generate(seed=seed, node_names=nodes)


def test_chaos_run_is_deterministic():
    plan = crash_plan()
    m1, r1 = run_chaos(KubeletInAllocationScenario, plan, seed=42)
    m2, r2 = run_chaos(KubeletInAllocationScenario, plan, seed=42)
    assert r1 == r2
    assert m1 == m2


def test_node_crash_requeues_service_job_and_recovers():
    plan = crash_plan(seed=42)
    assert any(e.kind is FaultKind.NODE_CRASH for e in plan)
    _, report = run_chaos(KubeletInAllocationScenario, plan, seed=42)
    assert report.injected.get("node_crash", 0) >= 1
    assert report.jobs_requeued >= 1
    assert report.clean, report.leaks
    # the requeued allocation restarted its agents and finished the work
    assert report.pods_completed + report.pods_failed == report.pods_submitted


def test_registry_faults_fail_pods_but_leak_nothing():
    plan = FaultPlan([
        FaultEvent(kind=FaultKind.REGISTRY_429, at=0.0, duration=30.0),
    ])
    _, report = run_chaos(KubeletInAllocationScenario, plan, seed=7)
    assert report.injected.get("registry_429", 0) >= 1
    assert report.retries.get("registry", 0) >= 1
    assert report.pods_failed >= 1          # pull deadline / retry exhaustion
    assert report.clean, report.leaks


def test_chaos_cli_double_run_traces_byte_identical(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["chaos", "kubelet_in_allocation", "--seed", "42"]
    assert main([*argv, "--trace", str(out_a)]) == 0
    assert main([*argv, "--trace", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert any(
        ev.get("name") == "fault.injected" for ev in doc.get("traceEvents", [])
    )


def test_chaos_cli_plan_roundtrip(tmp_path):
    plan_path = tmp_path / "plan.json"
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main([
        "chaos", "kubelet-in-allocation", "--seed", "9",
        "--trace", str(out_a), "--save-plan", str(plan_path),
    ]) == 0
    assert main([
        "chaos", "kubelet-in-allocation", "--seed", "9",
        "--trace", str(out_b), "--faults", str(plan_path),
    ]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_chaos_cli_rejects_unknown_scenario(tmp_path):
    assert main(["chaos", "no-such-scenario", "--trace", str(tmp_path / "x.json")]) == 2


# -- the §3.2 property: no lingering containers or mounts, any plan ----------------

@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_no_leaks_under_any_seeded_plan(seed):
    plan = crash_plan(seed=seed)
    _, report = run_chaos(KubeletInAllocationScenario, plan, seed=seed, n_pods=4)
    assert report.clean, report.leaks
    assert report.pods_completed + report.pods_failed <= report.pods_submitted


# -- SLO sampling, detection latency, and run_slo -----------------------------


#: what the ``slo`` verb records: metrics plus 5 s time-series sampling
SAMPLED = ObsConfig(metrics=True, timeseries=5.0)


@pytest.fixture
def _sampling_on():
    with observing(SAMPLED):
        yield


def test_chaos_without_recorder_reports_no_detection():
    _, report = run_chaos(KubeletInAllocationScenario, crash_plan(), seed=42)
    assert report.alerts_fired == 0
    assert report.detection == {}
    assert report.evaluation is None


def test_chaos_with_recorder_scores_node_crash_detection(_sampling_on):
    _, report = run_chaos(KubeletInAllocationScenario, crash_plan(), seed=42)
    assert report.alerts_fired >= 1
    latency = report.detection.get("node_crash")
    # symptom series are sampled on a 5s grid, so the crash is noticed
    # within one tick of injection
    assert latency is not None and 0.0 <= latency <= 5.0
    assert report.evaluation is not None
    assert report.evaluation.fires == report.alerts_fired


def test_chaos_report_document_rolls_up_detection(_sampling_on):
    from repro.faults.chaos import chaos_report_document

    _, report = run_chaos(KubeletInAllocationScenario, crash_plan(), seed=42)
    doc = chaos_report_document([report], report.scenario)
    assert doc["schema"] == "repro-chaos-report/2"
    agg = doc["aggregate"]["detection"]["node_crash"]
    assert agg == {
        "detected": 1,
        "of": 1,
        "mean_latency": report.detection["node_crash"],
    }
    assert doc["reports"][0]["alerts_fired"] == report.alerts_fired
    assert check_chaos_report(json.loads(json.dumps(doc))) == []


def _sweep_document():
    """A two-seed sweep's ``--out`` document, read back from JSON."""
    from repro.faults.chaos import chaos_report_document

    reports = [run_chaos(KubeletInAllocationScenario, crash_plan(seed=s), seed=s,
                         n_pods=2)[1] for s in (3, 4)]
    return json.loads(json.dumps(chaos_report_document(reports, reports[0].scenario)))


def test_chaos_report_passes_the_strict_shape_check():
    assert check_chaos_report(_sweep_document()) == []


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (lambda d: d.update(extra=1), "unexpected key 'extra'"),
        (lambda d: d["aggregate"].pop("retries"), "missing key 'retries'"),
        (lambda d: d["reports"][0].update(seed=3.0), "reports[0].seed: expected int"),
        (lambda d: d["reports"][1].update(pods_failed=False), "pods_failed: expected int"),
        (lambda d: d["reports"][0].update(end_time=4100), "end_time: expected float"),
        (lambda d: d["reports"][0]["injected"].update(x="1"), "injected.x: expected int"),
        (lambda d: d["reports"][0]["detection"].update(x="1"),
         "detection.x: expected float or NoneType"),
        (lambda d: d.update(schema="repro-chaos-report/1"), "report.schema"),
        (lambda d: d.update(seeds=[4, 3]), "report.seeds"),
        (lambda d: d["aggregate"].update(runs=3), "aggregate.runs"),
        (lambda d: d["reports"][0].update(leaks=["x"]), "reports[0].clean"),
        (lambda d: d["aggregate"].update(clean=False), "aggregate.clean"),
    ],
)
def test_chaos_shape_check_rejects_drift(tamper, expected):
    doc = _sweep_document()
    tamper(doc)
    problems = check_chaos_report(doc)
    assert any(expected in p for p in problems), problems


def _slo_run(plan):
    """One ``slo``-verb run in a session of its own."""
    from repro.faults.chaos import run_slo

    with observing(SAMPLED) as run:
        _, report, scorecard = run_slo(KubeletInAllocationScenario, plan, seed=42)
        return report, scorecard, run.recorder.to_json()


def test_run_slo_is_deterministic_and_scores_the_run():
    plan = crash_plan()
    r1, s1, series_1 = _slo_run(plan)
    r2, s2, series_2 = _slo_run(plan)
    assert s2.to_json() == s1.to_json()
    assert series_2 == series_1
    assert r1.to_dict() == r2.to_dict()
    assert s1.detection == r1.detection
    assert any(row["fires"] for row in s1.to_dict()["rules"])


def test_run_slo_needs_a_sampling_session():
    from repro.faults.chaos import run_slo

    with pytest.raises(ValueError, match="timeseries"):
        run_slo(KubeletInAllocationScenario, crash_plan(), seed=42)


def test_alert_instants_land_in_the_trace(tmp_path):
    from repro.obs.trace import export_json

    with observing(dataclasses.replace(SAMPLED, trace=True)):
        _, report = run_chaos(KubeletInAllocationScenario, crash_plan(), seed=42)
        doc = json.loads(export_json(str(tmp_path / "t.json")))
    alerts = [e for e in doc["traceEvents"] if e.get("name") == "slo.alert"]
    # every fire edge (and any resolve edges) lands as an instant
    assert len(alerts) >= report.alerts_fired >= 1
    assert all(e["ph"] == "i" for e in alerts)


@pytest.mark.parametrize("scenario", ["knoc-virtual-kubelet", "bridge-operator"])
def test_requeued_bridge_jobs_tear_down_each_container_on_its_own_node(scenario):
    """Seed 17's node crash requeues WLM jobs that had already started
    containers: the job ends on another node, and each container it
    started is stopped and removed through the engine of the node it
    ran on, leaving no record, process or monitor behind."""
    from repro.shard.cells import ChaosCell

    report = ChaosCell(scenario=scenario, seed=17).run()
    assert report.jobs_requeued > 0
    assert report.leaks == [] and report.clean


class _KeptK8sInWLM(KubernetesInWLMScenario):
    """Keeps the scenario objects a chaos run builds, for inspection."""

    built: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _KeptK8sInWLM.built.append(self)


@pytest.mark.parametrize("seed", range(6))
def test_requeued_k8s_in_wlm_cluster_is_ready_once_and_rejoins_its_agents(seed):
    """Every seeded plan crashes a node of the private cluster's job:
    the requeued incarnation restarts K3s and rejoins a full set of
    agents, readiness stays the first incarnation's, and the run ends
    with every pod accounted for and nothing left behind."""
    from repro.shard.cells import ChaosCell

    _KeptK8sInWLM.built.clear()
    _, report = run_chaos(_KeptK8sInWLM, ChaosCell("kubernetes-in-wlm", seed).plan(), seed=seed)
    (scenario,) = _KeptK8sInWLM.built
    assert report.jobs_requeued >= 1
    assert scenario.retired_kubelets
    assert len(scenario.kubelets) == scenario.n_nodes
    assert all(k.k8s_node is not None for k in scenario.kubelets)  # rejoined
    assert scenario._cluster_ready.value == scenario.provisioned_at
    assert report.pods_completed + report.pods_failed == report.pods_submitted
    assert report.clean, report.leaks


@pytest.mark.parametrize("seed", range(4))
def test_wlm_in_k8s_teardown_ends_its_slurmd_service_pods(seed):
    """The slurmd pods never end on their own (``duration=None``): the
    scenario's teardown ends them through the kubelets' stop → remove
    path, so the audit finds no running container, mount or record."""
    from repro.shard.cells import ChaosCell

    report = ChaosCell("wlm-in-kubernetes", seed).run()
    assert report.leaks == [] and report.clean
