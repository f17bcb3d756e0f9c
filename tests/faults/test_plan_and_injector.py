"""Unit tests for fault plans, the injector, and retry policies."""

import json

import pytest

from repro.cli import main
from repro.faults import (
    KIND_POINTS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    RetryExhausted,
    RetryPolicy,
    injector,
)
from repro.sim import Environment

#: marks a plan field the test leaves out of the entry
MISSING = object()


# -- plans --------------------------------------------------------------------------

def test_every_kind_has_an_injection_point():
    assert set(KIND_POINTS) == set(FaultKind)


def test_event_window_is_half_open():
    ev = FaultEvent(kind=FaultKind.REGISTRY_429, at=10.0, duration=5.0)
    assert not ev.active_at(9.999)
    assert ev.active_at(10.0)
    assert ev.active_at(14.999)
    assert not ev.active_at(15.0)


def test_instantaneous_event_active_only_at_its_instant():
    ev = FaultEvent(kind=FaultKind.HOOK_FAILURE, at=3.0)
    assert ev.active_at(3.0)
    assert not ev.active_at(3.0001)


def test_target_matching():
    ev = FaultEvent(kind=FaultKind.NODE_CRASH, at=0.0, target="nid0001")
    assert ev.matches("nid0001")
    assert ev.matches(None)          # caller without a target sees everything
    assert not ev.matches("nid0002")
    blanket = FaultEvent(kind=FaultKind.REGISTRY_429, at=0.0)
    assert blanket.matches("anything")


def test_plan_events_sorted_and_queryable():
    plan = FaultPlan([
        FaultEvent(kind=FaultKind.MDS_OUTAGE, at=50.0, duration=1.0),
        FaultEvent(kind=FaultKind.REGISTRY_429, at=10.0, duration=1.0),
        FaultEvent(kind=FaultKind.NODE_CRASH, at=30.0, duration=1.0, target="n1"),
    ])
    assert [e.at for e in plan] == [10.0, 30.0, 50.0]
    assert [e.kind for e in plan.for_point("registry.pull")] == [FaultKind.REGISTRY_429]
    assert [e.kind for e in plan.push_events()] == [FaultKind.NODE_CRASH]


def test_plan_json_roundtrip(tmp_path):
    plan = FaultPlan(
        [
            FaultEvent(kind=FaultKind.NODE_CRASH, at=12.5, duration=30.0, target="nid0002"),
            FaultEvent(kind=FaultKind.MDS_DEGRADED, at=5.0, duration=20.0, factor=7.5),
        ],
        seed=99,
    )
    path = tmp_path / "plan.json"
    plan.to_file(str(path))
    back = FaultPlan.from_file(str(path))
    assert back.seed == 99
    assert back.events == plan.events


@pytest.mark.parametrize("field, value", [
    ("at", float("nan")),
    ("at", float("inf")),
    ("at", -1.0),
    ("duration", -10.0),
    ("duration", float("nan")),
    ("duration", float("inf")),
    ("factor", 0.0),
    ("factor", -2.0),
    ("factor", float("nan")),
    ("factor", float("inf")),
    ("kind", "node_crashh"),
    ("at", None),
    ("at", "soon"),
    pytest.param("at", MISSING, id="at-missing"),
    pytest.param("kind", MISSING, id="kind-missing"),
    ("target", 7),
    ("target", None),
    pytest.param("target", MISSING, id="target-missing"),
])
def test_plan_rejects_bad_event_numbers_where_it_enters(field, value):
    """A NaN crash time used to surface as an int conversion deep in the
    fleet pump, and a negative duration as a node still down (and its
    cores leaked) after the drain; both now fail at parse time, as do an
    infinite slow-blob factor, an unknown kind, a missing time and a
    node crash that names no node (it used to be accepted and kill
    nothing)."""
    entry = {"kind": "node_crash", "at": 5.0, "duration": 10.0,
             "target": "fleet-node-00000", field: value}
    if value is MISSING:
        del entry[field]
    with pytest.raises(ValueError, match=f"'{field}'"):
        FaultPlan.from_json(json.dumps({"events": [entry]}))


@pytest.mark.parametrize("verb", [
    ["chaos", "kubelet_in_allocation"],
    ["chaos", "kubelet_in_allocation", "--seeds", "0..1"],
    ["slo", "kubelet_in_allocation"],
    ["fleet"],
    ["replay"],
])
def test_cli_reports_bad_fault_plan(verb, tmp_path, capsys):
    """Every verb that reads ``--faults`` exits 2 with the field named,
    instead of a traceback."""
    plan_path = tmp_path / "plan.json"
    for entry, field in [
        ({"kind": "node_crash", "at": -1.0}, "at"),
        ({"kind": "node_crash"}, "at"),
        ({"kind": "node_crashh", "at": 1.0}, "kind"),
        ({"kind": "registry_slow_blob", "at": 1.0, "duration": 5.0,
          "factor": float("inf")}, "factor"),
        ("node_crash", "events"),
    ]:
        plan_path.write_text(json.dumps([entry]))
        assert main([*verb, "--faults", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad fault plan:") and f"'{field}'" in err
    assert main([*verb, "--faults", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad fault plan:") and "missing.json" in err


def test_plan_checks_node_crash_targets_against_the_run():
    plan = FaultPlan([
        FaultEvent(kind=FaultKind.REGISTRY_429, at=1.0, duration=5.0),
        FaultEvent(kind=FaultKind.NODE_CRASH, at=2.0, duration=5.0, target="nid0001"),
        FaultEvent(kind=FaultKind.NODE_CRASH, at=3.0, target="fleet-node-09999"),
    ])
    plan.check_node_targets(["nid0001", "fleet-node-09999"])
    with pytest.raises(ValueError, match="fault event 2: node_crash 'target' "
                                         "'fleet-node-09999'"):
        plan.check_node_targets(["nid0000", "nid0001"])


@pytest.mark.parametrize("verb, good, bad", [
    (["chaos", "kubelet_in_allocation"], "nid0001", "nid0004"),
    (["chaos", "kubelet_in_allocation", "--seeds", "0..1"], "nid0001", "nid0004"),
    (["slo", "kubelet_in_allocation"], "nid0001", "nid0004"),
    (["fleet"], "fleet-node-00001", "fleet-node-00128"),
])
def test_cli_rejects_crash_targets_outside_the_run(verb, good, bad, tmp_path, capsys):
    """A crash aimed at a node the run does not have used to be dropped
    silently by ``fleet`` and counted as injected by ``chaos``."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps([
        {"kind": "node_crash", "at": 5.0, "duration": 10.0, "target": good},
        {"kind": "node_crash", "at": 9.0, "target": bad},
    ]))
    assert main([*verb, "--faults", str(plan_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad fault plan: fault event 1:") and repr(bad) in err


def test_plan_from_bare_event_list():
    plan = FaultPlan.from_json('[{"kind": "registry_429", "at": 1.0, "duration": 2.0}]')
    assert len(plan) == 1
    assert plan.events[0].kind is FaultKind.REGISTRY_429


def test_generate_is_deterministic_and_seed_sensitive():
    nodes = ["nid0000", "nid0001"]
    a = FaultPlan.generate(seed=7, node_names=nodes)
    b = FaultPlan.generate(seed=7, node_names=nodes)
    c = FaultPlan.generate(seed=8, node_names=nodes)
    assert a.events == b.events
    assert a.events != c.events
    kinds = {e.kind for e in a}
    assert FaultKind.NODE_CRASH in kinds
    crash = next(e for e in a if e.kind is FaultKind.NODE_CRASH)
    assert crash.target in nodes


def test_generate_without_nodes_skips_crashes():
    plan = FaultPlan.generate(seed=1)
    assert all(e.kind is not FaultKind.NODE_CRASH for e in plan)


# -- injector -----------------------------------------------------------------------

def test_disabled_injector_is_inert():
    assert not injector.enabled
    assert injector.active("registry.pull", at=0.0) is None
    injector.note_retry("registry")
    assert injector.retry_counts == {}
    injector.register("wlm.node", lambda e, p: None)  # no-op while disarmed
    assert injector._handlers == {}


def test_armed_injector_serves_windows_and_counts():
    env = Environment()
    plan = FaultPlan([FaultEvent(kind=FaultKind.REGISTRY_429, at=10.0, duration=5.0)])
    injector.arm(plan, env)
    assert injector.active("registry.pull", at=5.0) is None
    hit = injector.active("registry.pull", at=12.0)
    assert hit is not None and hit.kind is FaultKind.REGISTRY_429
    assert injector.active("fs.mds", at=12.0) is None
    injector.note_retry("registry")
    assert injector.injected_counts == {"registry_429": 1}
    assert injector.retry_counts == {"registry": 1}
    injector.disarm()
    assert injector.active("registry.pull", at=12.0) is None


def test_push_driver_delivers_crash_and_restore_edges():
    env = Environment()
    plan = FaultPlan(
        [FaultEvent(kind=FaultKind.NODE_CRASH, at=20.0, duration=30.0, target="n1")]
    )
    injector.arm(plan, env)
    seen: list[tuple[float, str, str]] = []
    injector.register(
        "wlm.node", lambda event, phase: seen.append((env.now, phase, event.target))
    )
    env.run(until=100.0)
    assert seen == [(20.0, "crash", "n1"), (50.0, "restore", "n1")]
    assert injector.injected_counts == {"node_crash": 1}


def test_arm_resets_counts():
    env = Environment()
    plan = FaultPlan([FaultEvent(kind=FaultKind.REGISTRY_429, at=0.0, duration=1.0)])
    injector.arm(plan, env)
    injector.active("registry.pull", at=0.5)
    injector.arm(plan, Environment())
    assert injector.injected_counts == {}


# -- retry policies -----------------------------------------------------------------

def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(max_attempts=6, base_delay=1.0, multiplier=3.0, max_delay=10.0)
    assert [policy.delay(i) for i in range(5)] == [1.0, 3.0, 9.0, 10.0, 10.0]
    assert list(policy.delays()) == [1.0, 3.0, 9.0, 10.0, 10.0]


def test_gives_up_on_attempts_or_deadline():
    policy = RetryPolicy(max_attempts=3, deadline=100.0)
    assert not policy.gives_up(2, 50.0)
    assert policy.gives_up(3, 0.0)
    assert policy.gives_up(1, 100.0)
    no_deadline = RetryPolicy(max_attempts=3)
    assert not no_deadline.gives_up(2, 1e9)


def test_retry_exhausted_aggregates_cause():
    cause = ValueError("boom")
    exc = RetryExhausted("registry", attempts=4, elapsed=37.5, last_cause=cause)
    msg = str(exc)
    assert "4 attempts" in msg and "37.50s" in msg and "ValueError: boom" in msg
    assert exc.last_cause is cause


def test_retry_policy_is_jitter_free():
    policy = RetryPolicy()
    assert list(policy.delays()) == list(policy.delays())
