"""Fleet chaos: fault plans through the fleet engine, SLO scorecards.

The contracts under test mirror the non-chaos fleet suite: determinism
(double runs byte-identical), shard transparency (``--jobs N`` equals
serial, including the scorecard), equivalence with the one-event-per-
start oracle, and the
§3.2 no-lingering-state property — a crashed-then-restored node must
leave the capacity ledger and the leak audit clean for *any* seeded
plan, which is what the hypothesis property at the bottom sweeps.
Hostile but valid inputs (zero starts, one node, every node down past
the run, whole-run registry windows) must finish with every start
accounted for.
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs.slo import check_slo_scorecard, check_slo_scorecard_file
from repro.run import ObsConfig, observing
from repro.workload.fleet import (
    FleetConfig,
    FleetShardEngine,
    check_fleet_report,
    fleet_cells,
    fleet_node_name,
    fleet_node_names,
    fleet_report_document,
    generate_fleet_plan,
    run_fleet,
    score_fleet_slo,
)

from tests.oracles.fleet import use_fleet_oracle

SMALL = FleetConfig(tenants=8, nodes=16, starts=400, images=6, shards=4)
#: a few nodes under a long queue: crashes requeue onto a full pool
CONTENDED = FleetConfig(tenants=8, nodes=4, starts=600, images=6, shards=2,
                        day=600.0)

#: the seed used throughout: on SMALL it yields 2 node crashes plus a
#: registry 429 and a slow-blob window, all inside the horizon
SEED = 3


def _scored_run(config, plan, jobs=1, interval=5.0):
    """Run a sampled fleet under ``plan`` in a session of its own and
    score the default rules."""
    with observing(ObsConfig(timeseries=interval)):
        result = run_fleet(config, jobs=jobs, plan=plan)
        return result, score_fleet_slo(result)


def _sampled_run(config, plan, interval=5.0):
    """A run sampled every ``interval`` s in a session of its own: its
    report, its ``fleet.*`` time series and its scorecard as JSON."""
    with observing(ObsConfig(timeseries=interval)) as sampled:
        result = run_fleet(config, plan=plan)
        series = {name: points for name, points in sampled.recorder.snapshot().items()
                  if name.startswith("fleet.")}
        return fleet_report_document(result), series, score_fleet_slo(result).to_json()


def test_merged_samples_carry_their_interval_outside_a_session(idle_run):
    """Cells sampled every 10 s used to merge into a recorder that kept
    reporting its default 5 s interval, so the scorecard snapped the
    registry outage's detection to the wrong grid."""
    config = FleetConfig(tenants=8, nodes=32, starts=2000, shards=2, seed=1)
    plan = generate_fleet_plan(config, seed=1)
    result = run_fleet(config, sample_interval=10.0, plan=plan)
    interval = idle_run.recorder.document()["interval"]
    bare = score_fleet_slo(result)
    _, sessioned = _scored_run(config, plan, interval=10.0)
    assert interval == 10.0
    assert bare.detection["registry_429"] == sessioned.detection["registry_429"] == 10.0
    assert bare.to_json() == sessioned.to_json()


# -- plan generation -----------------------------------------------------------

def test_generated_plan_targets_fleet_nodes():
    plan = generate_fleet_plan(SMALL, seed=SEED)
    names = set(fleet_node_names(SMALL))
    crashes = [e for e in plan.events if e.kind is FaultKind.NODE_CRASH]
    assert crashes, "seeded fleet plan must include node crashes"
    assert {e.target for e in crashes} <= names
    assert all(e.until <= SMALL.day for e in plan.events)
    # same seed -> same schedule, serialized or not
    again = FaultPlan.from_json(generate_fleet_plan(SMALL, seed=SEED).to_json())
    assert again.to_json() == plan.to_json()


# -- node crash delivery -------------------------------------------------------

def test_node_crash_requeues_and_drains_clean():
    plan = generate_fleet_plan(SMALL, seed=SEED)
    result = run_fleet(SMALL, plan=plan)
    assert result.crashes > 0
    assert result.requeues > 0
    assert result.leaks == []
    assert "node_crash" in result.injected
    assert result.injected_at["node_crash"] >= 0.0
    # every start is accounted for: requeued starts run again elsewhere,
    # so placements exceed the configured starts by exactly the requeues
    assert result.completions + result.failed == result.config.starts
    assert result.starts == (
        result.completions + result.failed + result.requeues
    )


def test_fast_matches_naive_under_chaos(monkeypatch):
    """Crash/restore edges merged into the epoch pump land exactly where
    one-event-per-edge delivery puts them.  Sampled every 5 s, the
    pump's ticks see what the oracle's see at each epoch boundary, so
    the time series and the scorecards are equal too."""
    runs = [(c, generate_fleet_plan(c, seed=SEED)) for c in (SMALL, CONTENDED)]
    fast = [_sampled_run(c, plan) for c, plan in runs]
    assert all(doc["summary"]["requeues"] > 0 for doc, _, _ in fast)
    for _, series, _ in fast:  # the ticks saw the requeues land
        assert any(value for name, points in series.items()
                   if name.startswith("fleet.requeues{") for _, value in points)
    use_fleet_oracle(monkeypatch)
    assert [_sampled_run(c, plan) for c, plan in runs] == fast


def test_fast_matches_naive_through_an_outage_under_load(monkeypatch):
    """A registry timeout window opening on a long queue fails cold
    pulls inside completion drains, which must keep draining past each
    failed start exactly as one event per occurrence does."""
    plan = FaultPlan(
        [FaultEvent(kind=FaultKind.REGISTRY_TIMEOUT, at=150.0, duration=200.0),
         FaultEvent(kind=FaultKind.NODE_CRASH, at=200.0, duration=60.0,
                    target=fleet_node_name(1))],
        seed=0,
    )
    fast = _sampled_run(CONTENDED, plan)
    summary = fast[0]["summary"]
    assert summary["failed"] > 0 and summary["pending_peak"] > 100
    use_fleet_oracle(monkeypatch)
    assert _sampled_run(CONTENDED, plan) == fast


# -- registry windows: the pull table answers every pull outside them ---------

#: a contended shard with enough images that the pull table has work
WINDOWED = FleetConfig(tenants=8, nodes=4, starts=1200, images=24, shards=2,
                       day=1200.0)


def _fault_fields(result):
    return result.injected, result.injected_at, result.fault_retries


def test_registry_window_edges_match_the_oracle(monkeypatch):
    """Hand-written windows at the edges: a timeout from t=0 that fails
    the earliest cold pulls, a 429 window nested in it (the timeout,
    first in the plan, answers there), a slow-blob window overlapping
    it, a duration-0 429 at a node's restore instant (whose drain pulls
    at exactly that time) and a 429 at the horizon.  Pulls inside a
    window go through the registry one by one; every other cold pull
    is a table answer.  A metered, pooled run reports and scores the
    same, and the report, scorecard and fault accounting equal the
    oracle's, which prices every cold pull through the registry."""
    plan = FaultPlan([
        FaultEvent(kind=FaultKind.REGISTRY_TIMEOUT, at=0.0, duration=150.0),
        FaultEvent(kind=FaultKind.REGISTRY_429, at=20.0, duration=10.0),
        FaultEvent(kind=FaultKind.REGISTRY_SLOW_BLOB, at=100.0, duration=100.0,
                   factor=3.0),
        FaultEvent(kind=FaultKind.NODE_CRASH, at=250.0, duration=50.0,
                   target=fleet_node_name(0)),
        FaultEvent(kind=FaultKind.REGISTRY_429, at=300.0),
        FaultEvent(kind=FaultKind.REGISTRY_429, at=WINDOWED.day, duration=10.0),
    ], seed=0)
    priced = []
    real = FleetShardEngine._cold_pull

    def counted(self, tloc, img, node, t):
        priced.append(t)
        return real(self, tloc, img, node, t)

    monkeypatch.setattr(FleetShardEngine, "_cold_pull", counted)
    fast, card = _scored_run(WINDOWED, plan)
    assert 0 < len(priced) < fast.cold_pulls
    with observing(ObsConfig(metrics=True, timeseries=5.0)):
        metered = run_fleet(WINDOWED, jobs=2, plan=plan)
        assert score_fleet_slo(metered).to_json() == card.to_json()
    assert fleet_report_document(metered) == fleet_report_document(fast)
    assert fast.failed > 0 and fast.requeues > 0
    assert fast.injected_at["registry_429"] == 300.0  # the duration-0 window
    assert fast.completions + fast.failed == WINDOWED.starts
    assert fast.leaks == []
    use_fleet_oracle(monkeypatch)
    oracle, oracle_card = _scored_run(WINDOWED, plan)
    assert fleet_report_document(oracle) == fleet_report_document(fast)
    assert oracle_card.to_json() == card.to_json()
    assert _fault_fields(oracle) == _fault_fields(fast)


#: small enough that hypothesis can run the engine and the oracle often
WINDOWED_TINY = FleetConfig(tenants=4, nodes=4, starts=200, images=8, shards=2,
                            day=600.0)
REGISTRY_KINDS = [FaultKind.REGISTRY_429, FaultKind.REGISTRY_TIMEOUT,
                  FaultKind.REGISTRY_SLOW_BLOB]
_times = st.floats(min_value=0.0, max_value=WINDOWED_TINY.day,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_registry_windows_match_the_oracle(data):
    """Registry windows of every kind, overlapping or not, of duration
    0, opening at t=0, at the horizon or at a crash or restore edge
    (whose drain pulls at exactly that instant), mixed with node
    crashes: the fast engine, metered or not, reports what the oracle
    does and accounts for every start."""
    crashes = data.draw(st.lists(st.tuples(
        _times, st.one_of(st.just(0.0), _times),
        st.integers(min_value=0, max_value=WINDOWED_TINY.nodes - 1),
    ), max_size=2))
    edges = [0.0, WINDOWED_TINY.day]
    for at, duration, _node in crashes:
        edges += (at, at + duration)
    windows = data.draw(st.lists(st.tuples(
        st.sampled_from(REGISTRY_KINDS),
        st.one_of(st.sampled_from(edges), _times),
        st.one_of(st.just(0.0), _times),
        st.floats(min_value=1.0, max_value=5.0),
    ), min_size=1, max_size=4))
    plan = FaultPlan(
        [FaultEvent(kind=FaultKind.NODE_CRASH, at=at, duration=duration,
                    target=fleet_node_name(node))
         for at, duration, node in crashes]
        + [FaultEvent(kind=kind, at=at, duration=duration, factor=factor)
           for kind, at, duration, factor in windows],
        seed=0,
    )
    fast = run_fleet(WINDOWED_TINY, plan=plan)
    assert fast.completions + fast.failed == WINDOWED_TINY.starts
    assert fast.leaks == []
    doc = fleet_report_document(fast)
    with observing(ObsConfig(metrics=True)):
        assert fleet_report_document(run_fleet(WINDOWED_TINY, plan=plan)) == doc
    with pytest.MonkeyPatch.context() as patch:
        use_fleet_oracle(patch)
        oracle = run_fleet(WINDOWED_TINY, plan=plan)
    assert fleet_report_document(oracle) == doc
    assert _fault_fields(oracle) == _fault_fields(fast)


def _crash_plan(crashes) -> FaultPlan:
    return FaultPlan(
        [FaultEvent(kind=FaultKind.NODE_CRASH, at=at, duration=duration,
                    target=fleet_node_name(node))
         for at, duration, node in crashes],
        seed=0,
    )


def _assert_crashes_match_the_oracle(plan: FaultPlan) -> None:
    """The engine, plain and metered, and the oracle run ``plan`` on
    CONTENDED to the same report and fault accounting, a clean leak
    audit and every start accounted for."""
    fast = run_fleet(CONTENDED, plan=plan)
    assert fast.leaks == []
    assert fast.completions + fast.failed == CONTENDED.starts
    doc = fleet_report_document(fast)
    with observing(ObsConfig(metrics=True)):
        metered = run_fleet(CONTENDED, plan=plan)
    assert fleet_report_document(metered) == doc
    assert _fault_fields(metered) == _fault_fields(fast)
    with pytest.MonkeyPatch.context() as patch:
        use_fleet_oracle(patch)
        oracle = run_fleet(CONTENDED, plan=plan)
    assert fleet_report_document(oracle) == doc
    assert _fault_fields(oracle) == _fault_fields(fast)


_crash_at = st.one_of(
    st.sampled_from([0.0, CONTENDED.day]),
    st.floats(min_value=0.0, max_value=CONTENDED.day, allow_nan=False,
              allow_infinity=False),
)
_crash_for = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=25, deadline=None)
@given(crashes=st.lists(
    st.tuples(_crash_at, _crash_for,
              st.integers(min_value=0, max_value=CONTENDED.nodes - 1)),
    min_size=1, max_size=3,
))
@example(crashes=[(0.0, 0.0, 0), (CONTENDED.day, 40.0, 3)])
@example(crashes=[(100.0, 120.0, 2), (150.0, 0.0, 2), (180.0, 60.0, 2)])
def test_crash_only_plans_match_the_oracle(crashes):
    """One to three node crashes and no registry window: of duration 0,
    at t=0 or at the horizon, overlapping on one node, on a long queue
    or an empty one.  The crash and restore drains hand cores to the
    queue head exactly where one event per occurrence does."""
    _assert_crashes_match_the_oracle(_crash_plan(crashes))


def test_crash_on_an_empty_queue_requeues_a_new_head():
    """A crash that finds the queue empty requeues its killed starts as
    the new queue head; the drain at the crash then places what it can."""
    seen = []
    real = FleetShardEngine._deliver_edge

    def deliver(self, edge):
        before = len(self._pending)
        real(self, edge)
        if edge[3] == 0:
            seen.append((before, self._requeues))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetShardEngine, "_deliver_edge", deliver)
        plan = _crash_plan([(22.0, 30.0, 0)])
        run_fleet(CONTENDED, plan=plan)
    assert seen == [(0, 3)]
    _assert_crashes_match_the_oracle(plan)


def test_chaos_double_run_and_jobs_byte_identical():
    plan = generate_fleet_plan(SMALL, seed=SEED)
    first, card_first = _scored_run(SMALL, plan)
    second, card_second = _scored_run(SMALL, plan)
    pooled, card_pooled = _scored_run(SMALL, plan, jobs=4)
    docs = [fleet_report_document(r) for r in (first, second, pooled)]
    assert docs[0] == docs[1] == docs[2]
    cards = [c.to_json(indent=2) for c in (card_first, card_second, card_pooled)]
    assert cards[0] == cards[1] == cards[2]


def test_report_document_carries_fault_section():
    plan = generate_fleet_plan(SMALL, seed=SEED)
    doc = fleet_report_document(run_fleet(SMALL, plan=plan))
    assert doc["schema"] == "repro-fleet-report/2"
    faults = doc["faults"]
    assert faults["injected"]["node_crash"] == doc["summary"]["crashes"]
    assert set(faults["first_injected_at"]) == set(faults["injected"])


# -- registry outage accounting ------------------------------------------------

def test_registry_outage_wall_fails_starts_per_tenant():
    # a timeout wall across the whole horizon: every cold pull burns its
    # RetryPolicy attempts in place and fails (a 429 instead carries
    # retry_after, which legally skips past the window); warm starts
    # still succeed because the node already has the digests
    wall = FaultPlan(
        [FaultEvent(kind=FaultKind.REGISTRY_TIMEOUT, at=0.0,
                    duration=SMALL.day * 40)],
        seed=0,
    )
    result = run_fleet(SMALL, plan=wall)
    assert result.failed > 0
    assert sum(result.fault_retries.values()) > 0
    assert result.leaks == []
    assert result.completions + result.failed == result.config.starts
    tenant_failed = sum(t[2] for t in result.tenants.values())
    assert tenant_failed == result.failed


# -- SLO scorecard -------------------------------------------------------------

def test_fleet_scorecard_detects_seeded_crash():
    plan = generate_fleet_plan(SMALL, seed=SEED)
    result, card = _scored_run(SMALL, plan)
    doc = json.loads(card.to_json())
    assert check_slo_scorecard(doc) == []
    assert doc["scenario"] == "fleet"
    # the nodes-down rule sees the crash on the very tick it lands
    assert doc["detection"]["node_crash"] >= 0.0
    fired = {a["rule"] for a in doc["alerts"]}
    assert "nodes-down" in fired and "requeue-sweep" in fired
    rendered = card.render()
    assert "node_crash" in rendered


# -- shard cells ---------------------------------------------------------------

def test_fleet_cells_carry_plan_json_and_pickle():
    plan = generate_fleet_plan(SMALL, seed=SEED)
    cells = fleet_cells(SMALL, plan=plan)
    assert all(c.plan_json == plan.to_json(indent=None) for c in cells)
    assert pickle.loads(pickle.dumps(cells)) == cells
    # no plan -> the field stays None and the cell list is unchanged
    assert all(c.plan_json is None for c in fleet_cells(SMALL))


# -- CLI -----------------------------------------------------------------------

FLEET_ARGS = ["fleet", "--tenants", "4", "--nodes", "8", "--starts", "150",
              "--images", "4", "--shards", "2"]


def test_cli_fleet_chaos_slo_roundtrip(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    card_a = tmp_path / "card-a.json"
    card_b = tmp_path / "card-b.json"
    args = [*FLEET_ARGS, "--chaos", "--seed", str(SEED)]
    assert main([*args, "--save-plan", str(plan_path),
                 "--slo-out", str(card_a)]) == 0
    stdout = capsys.readouterr().out
    assert "chaos:" in stdout
    assert plan_path.exists()
    # replaying the saved plan via --faults reproduces the scorecard
    assert main([*FLEET_ARGS, "--faults", str(plan_path), "--seed", str(SEED),
                 "--slo-out", str(card_b)]) == 0
    capsys.readouterr()
    assert card_a.read_text() == card_b.read_text()
    assert check_slo_scorecard_file(str(card_a)) == 0


def test_cli_fleet_chaos_flag_validation(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(generate_fleet_plan(SMALL, seed=SEED).to_json())
    assert main([*FLEET_ARGS, "--chaos", "--faults", str(plan_path)]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main([*FLEET_ARGS, "--save-plan", str(tmp_path / "out.json")]) == 2
    assert "--save-plan needs" in capsys.readouterr().err


# -- hostile but valid inputs ---------------------------------------------------

#: a fleet small enough to run pooled in every hostile case
HOSTILE = FleetConfig(tenants=4, nodes=8, starts=300, images=4, shards=2, day=600.0)
#: a fault window that outlasts every run here
FOREVER = 100 * HOSTILE.day


def _whole_run(kind: FaultKind) -> FaultPlan:
    return FaultPlan([FaultEvent(kind=kind, at=0.0, duration=FOREVER)], seed=0)


HOSTILE_CASES = {
    "zero-starts": (dataclasses.replace(HOSTILE, starts=0),
                    generate_fleet_plan(HOSTILE, seed=SEED)),
    "one-node-one-tenant": (
        dataclasses.replace(HOSTILE, tenants=1, nodes=1, shards=1),
        FaultPlan([FaultEvent(kind=FaultKind.NODE_CRASH, at=100.0, duration=50.0,
                              target=fleet_node_name(0))], seed=0),
    ),
    "every-node-crashed-past-the-run": (HOSTILE, FaultPlan(
        [FaultEvent(kind=FaultKind.NODE_CRASH, at=0.0, duration=FOREVER, target=name)
         for name in fleet_node_names(HOSTILE)], seed=0,
    )),
    "whole-run-429": (HOSTILE, _whole_run(FaultKind.REGISTRY_429)),
    "whole-run-timeout": (HOSTILE, _whole_run(FaultKind.REGISTRY_TIMEOUT)),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_CASES))
def test_hostile_inputs_finish_with_explicit_accounting(case):
    """Inputs that are valid but hostile drain to the end: every start
    completes or is counted as failed, the leak audit is clean, and a
    worker pool reproduces the serial report."""
    config, plan = HOSTILE_CASES[case]
    serial = run_fleet(config, jobs=1, plan=plan)
    pooled = run_fleet(config, jobs=2, plan=plan)
    assert serial.completions + serial.failed == config.starts
    assert serial.leaks == []
    assert fleet_report_document(pooled) == fleet_report_document(serial)
    assert check_fleet_report(json.loads(json.dumps(fleet_report_document(serial)))) == []


# -- property: crash/restore leaves no residue ---------------------------------

TINY = FleetConfig(tenants=4, nodes=8, starts=120, images=4, shards=2)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    crash_at=st.floats(min_value=0.0, max_value=TINY.day,
                       allow_nan=False, allow_infinity=False),
    outage=st.floats(min_value=0.0, max_value=600.0,
                     allow_nan=False, allow_infinity=False),
    node=st.integers(min_value=0, max_value=TINY.nodes - 1),
)
def test_crashed_then_restored_node_leaves_no_residue(
    seed, crash_at, outage, node
):
    """Any single crash/restore cycle anywhere in the horizon drains
    clean: no down nodes, no leaked cores, no stuck slots or queues, and
    the start accounting still balances."""
    plan = FaultPlan(
        [FaultEvent(kind=FaultKind.NODE_CRASH, at=crash_at, duration=outage,
                    target=fleet_node_name(node))],
        seed=seed,
    )
    config = dataclasses.replace(TINY, seed=seed)
    result = run_fleet(config, plan=plan)
    assert result.leaks == []
    assert result.completions + result.failed == result.config.starts
    assert result.starts == (
        result.completions + result.failed + result.requeues
    )
    # determinism holds under the same plan
    assert fleet_report_document(run_fleet(config, plan=plan)) == \
        fleet_report_document(result)
