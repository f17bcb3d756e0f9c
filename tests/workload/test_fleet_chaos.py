"""Fleet chaos: fault plans through the fleet engine, SLO scorecards.

The contracts under test mirror the non-chaos fleet suite: determinism
(double runs byte-identical), shard transparency (``--jobs N`` equals
serial, including the scorecard), equivalence with the one-event-per-
start oracle, and the
§3.2 no-lingering-state property — a crashed-then-restored node must
leave the capacity ledger and the leak audit clean for *any* seeded
plan, which is what the hypothesis property at the bottom sweeps.
"""

import dataclasses
import json
import pickle

from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs import timeseries as obs_timeseries
from repro.workload.fleet import (
    FleetConfig,
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
    """Run a sampled fleet under ``plan`` and score the default rules."""
    obs_timeseries.reset()
    result = run_fleet(config, jobs=jobs, sample_interval=interval, plan=plan)
    # merge restores points but not the interval; pin it before scoring
    obs_timeseries.recorder.enable(interval=interval, reset=False)
    try:
        card = score_fleet_slo(result)
    finally:
        obs_timeseries.disable()
        obs_timeseries.reset()
    return result, card


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
    one-event-per-edge delivery puts them."""
    runs = [(c, generate_fleet_plan(c, seed=SEED)) for c in (SMALL, CONTENDED)]
    fast = [fleet_report_document(run_fleet(c, plan=plan)) for c, plan in runs]
    assert all(doc["summary"]["requeues"] > 0 for doc in fast)
    use_fleet_oracle(monkeypatch)
    assert [fleet_report_document(run_fleet(c, plan=plan)) for c, plan in runs] == fast


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
    doc = json.loads(card_a.read_text())
    assert doc["schema"].startswith("repro-slo-scorecard/")


def test_cli_fleet_chaos_flag_validation(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(generate_fleet_plan(SMALL, seed=SEED).to_json())
    assert main([*FLEET_ARGS, "--chaos", "--faults", str(plan_path)]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main([*FLEET_ARGS, "--save-plan", str(tmp_path / "out.json")]) == 2
    assert "--save-plan needs" in capsys.readouterr().err


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
