"""SLO rule engine (repro.obs.slo): selectors, rule JSON, the state
machine, ratio/burn-rate math, detection latency, and the scorecard."""

import json

import pytest

from repro.obs.slo import (
    AlertEvent,
    ScorecardReport,
    SloRule,
    SloRuleSet,
    check_slo_scorecard,
    check_slo_scorecard_file,
    default_chaos_rules,
    detection_latencies,
    evaluate,
    parse_selector,
)
from repro.obs.timeseries import TimeSeriesRecorder


def _rec(interval=5.0) -> TimeSeriesRecorder:
    return TimeSeriesRecorder().enable(interval=interval)


# -- selectors ----------------------------------------------------------------


def test_parse_selector_bare_name():
    assert parse_selector("retry.attempts.rate") == ("retry.attempts.rate", ())


def test_parse_selector_labels_sorted_and_quotes_stripped():
    name, labels = parse_selector('x{b="2", a=1}')
    assert name == "x"
    assert labels == (("a", "1"), ("b", "2"))


def test_parse_selector_empty_block_matches_all():
    assert parse_selector("x{}") == ("x", ())


def test_parse_selector_rejects_garbage():
    with pytest.raises(ValueError):
        parse_selector("x{a=1")
    with pytest.raises(ValueError):
        parse_selector("x{nonsense}")


# -- rules and rule sets ------------------------------------------------------


def test_rule_validation():
    with pytest.raises(ValueError):
        SloRule(name="r", kind="bogus")
    with pytest.raises(ValueError):
        SloRule(name="r", series="s", op=">=")
    with pytest.raises(ValueError):
        SloRule(name="r")  # threshold without a series
    with pytest.raises(ValueError):
        SloRule(name="r", kind="error_ratio", numerator="n")  # no denominator
    with pytest.raises(ValueError):
        SloRule(name="r", kind="burn_rate", numerator="n", denominator="d",
                objective=1.0)


def test_ruleset_rejects_duplicate_names():
    rule = SloRule(name="same", series="s")
    with pytest.raises(ValueError):
        SloRuleSet([rule, SloRule(name="same", series="t")])


def test_ruleset_json_roundtrip():
    original = default_chaos_rules()
    parsed = SloRuleSet.from_json(original.to_json())
    assert parsed.name == original.name
    assert list(parsed) == list(original)
    assert parsed.to_json() == original.to_json()


def test_ruleset_accepts_bare_rule_list():
    rules = SloRuleSet.from_json('[{"name": "r", "series": "s", "value": 1.5}]')
    assert len(rules) == 1
    assert rules.rules[0].value == 1.5


def test_ruleset_file_roundtrip(tmp_path):
    path = tmp_path / "rules.json"
    default_chaos_rules().to_file(str(path))
    assert SloRuleSet.from_file(str(path)).to_json() == default_chaos_rules().to_json()


# -- the state machine --------------------------------------------------------


def _threshold(name="r", **kw) -> SloRuleSet:
    return SloRuleSet([SloRule(name=name, series="s", **kw)])


def test_threshold_fires_and_resolves():
    rec = _rec()
    for t, v in [(5.0, 0.0), (10.0, 3.0), (15.0, 3.0), (20.0, 0.0)]:
        rec.record("s", t, v)
    ev = evaluate(_threshold(value=1.0), rec, 20.0)
    assert [(a.state, a.at) for a in ev.alerts] == [("fire", 10.0), ("resolve", 20.0)]
    (b,) = ev.breaches
    assert (b.start, b.end) == (10.0, 20.0)
    assert b.duration(20.0) == 10.0


def test_threshold_still_firing_at_run_end_leaves_open_breach():
    rec = _rec()
    rec.record("s", 5.0, 9.0)
    ev = evaluate(_threshold(value=1.0), rec, 30.0)
    assert ev.fires == 1
    (b,) = ev.breaches
    assert b.end is None
    assert b.duration(30.0) == 25.0


def test_for_s_holds_the_alert_until_condition_persists():
    rec = _rec()
    # breach at 5 clears at 10 — shorter than for_s, never fires
    for t, v in [(5.0, 9.0), (10.0, 0.0), (15.0, 9.0), (20.0, 9.0), (25.0, 9.0)]:
        rec.record("s", t, v)
    ev = evaluate(_threshold(value=1.0, for_s=10.0), rec, 25.0)
    assert [(a.state, a.at) for a in ev.alerts] == [("fire", 25.0)]


def test_less_than_op():
    rec = _rec()
    for t, v in [(5.0, 10.0), (10.0, 0.5)]:
        rec.record("s", t, v)
    ev = evaluate(_threshold(op="<", value=1.0), rec, 10.0)
    assert [(a.state, a.at) for a in ev.alerts] == [("fire", 10.0)]


def test_threshold_fans_out_per_matching_series():
    rec = _rec()
    rec.record("s", 5.0, 9.0, node="n0")
    rec.record("s", 5.0, 9.0, node="n1")
    ev = evaluate(_threshold(value=1.0), rec, 5.0)
    assert ev.fires == 2
    assert sorted(a.series for a in ev.alerts) == ['s{node="n0"}', 's{node="n1"}']


def test_alerts_sorted_independent_of_rule_order():
    rec = _rec()
    rec.record("s", 5.0, 9.0)
    rec.record("u", 5.0, 9.0)
    a = SloRule(name="a", series="u", value=1.0)
    b = SloRule(name="b", series="s", value=1.0)
    ev1 = evaluate(SloRuleSet([a, b]), rec, 5.0)
    ev2 = evaluate(SloRuleSet([b, a]), rec, 5.0)
    assert ev1.alerts == ev2.alerts


# -- ratio and burn-rate rules ------------------------------------------------


def _ratio_recorder() -> TimeSeriesRecorder:
    """failed ticks 2/tick from t=10; started 10/tick throughout."""
    rec = _rec()
    for t in (5.0, 10.0, 15.0):
        rec.record("started.rate", t, 2.0)  # 10 per 5s tick
    rec.record("failed.rate", 10.0, 0.4)  # 2 per tick
    rec.record("failed.rate", 15.0, 0.4)
    return rec


def test_error_ratio_windows_increments():
    rules = SloRuleSet([
        SloRule(name="ratio", kind="error_ratio", numerator="failed",
                denominator="started", value=0.1, window_s=300.0)
    ])
    ev = evaluate(rules, _ratio_recorder(), 15.0)
    # window ratios: 0/10, 2/20, 4/30 -> first exceeds 0.1 at t=15
    assert [(a.state, a.at) for a in ev.alerts] == [("fire", 15.0)]


def test_burn_rate_scales_by_error_budget():
    rules = SloRuleSet([
        SloRule(name="burn", kind="burn_rate", numerator="failed",
                denominator="started", objective=0.9, value=1.2,
                window_s=300.0)
    ])
    ev = evaluate(rules, _ratio_recorder(), 15.0)
    # burn = ratio / (1 - 0.9): ~0, ~1.0, ~1.33 — only t=15 exceeds 1.2
    assert [(a.state, a.at) for a in ev.alerts] == [("fire", 15.0)]


def test_ratio_with_zero_denominator_is_zero():
    rec = _rec()
    rec.record("failed.rate", 5.0, 1.0)
    rules = SloRuleSet([
        SloRule(name="ratio", kind="error_ratio", numerator="failed",
                denominator="started", value=0.0)
    ])
    assert evaluate(rules, rec, 5.0).fires == 0


# -- detection latency --------------------------------------------------------


def _ev(*fires: float):
    alerts = [AlertEvent("r", "s", "fire", t, 1.0) for t in fires]
    return evaluate(SloRuleSet([]), _rec(), 0.0).__class__(
        alerts=alerts, breaches=[], end_time=100.0
    )


def test_detection_latency_first_fire_at_or_after_injection():
    ev = _ev(10.0, 30.0)
    out = detection_latencies({"node_crash": 7.0, "mds_degraded": 25.0}, ev)
    assert out == {"node_crash": 3.0, "mds_degraded": 5.0}


def test_detection_latency_none_when_never_detected():
    out = detection_latencies({"hook_failure": 50.0}, _ev(10.0))
    assert out == {"hook_failure": None}


def test_detection_latency_zero_fault_set():
    assert detection_latencies({}, _ev(10.0)) == {}


# -- scorecard ----------------------------------------------------------------


def _scorecard() -> ScorecardReport:
    rec = _rec()
    rec.record("s", 5.0, 9.0, node="n0")
    rec.record("s", 10.0, 0.0, node="n0")
    rules = _threshold(value=1.0)
    ev = evaluate(rules, rec, 10.0)
    return ScorecardReport.build(
        scenario="unit", ruleset=rules, evaluation=ev, rec=rec,
        seed=3, detection={"node_crash": 2.5},
    )


def test_scorecard_document_shape_and_determinism():
    card = _scorecard()
    doc = card.to_dict()
    assert doc["schema"] == "repro-slo-scorecard/1"
    assert doc["scenario"] == "unit"
    (row,) = doc["rules"]
    assert row["rule"] == "r" and row["fires"] == 1 and row["breach_s"] == 5.0
    (entity,) = doc["entities"]
    assert entity["label"] == "node" and entity["entity"] == "n0"
    assert 0.0 <= entity["health"] <= 1.0
    assert doc["detection"] == {"node_crash": 2.5}
    assert card.to_json() == _scorecard().to_json()
    assert json.loads(card.to_json())["schema"] == "repro-slo-scorecard/1"


def test_scorecard_render_lists_rules_and_detection():
    text = _scorecard().render()
    assert "SLO scorecard: unit" in text
    assert "r " in text or "r\n" in text or " r" in text
    assert "node_crash" in text and "2.5s" in text


# -- scorecard reader -----------------------------------------------------------


def _scorecard_document() -> dict:
    """A scorecard with a resolved and a still-open breach, a rule that
    never fired, an undetected fault kind and a percentile row, read
    back from JSON."""
    from repro.obs.metrics import MetricsRegistry

    rec = _rec()
    for t, v in ((5.0, 9.0), (10.0, 0.0), (15.0, 9.0), (20.0, 9.0)):
        rec.record("s", t, v, node="n0")
    rules = SloRuleSet([
        SloRule(name="r", kind="threshold", series="s", value=1.0),
        SloRule(name="quiet", kind="threshold", series="s", value=100.0),
    ])
    registry = MetricsRegistry()
    registry.enabled = True
    registry.observe("op_seconds", 0.5, op="x")
    card = ScorecardReport.build(
        scenario="unit", ruleset=rules, evaluation=evaluate(rules, rec, 20.0),
        rec=rec, registry=registry, seed=None,
        detection={"node_crash": 2.5, "hook_failure": None},
    )
    return json.loads(card.to_json())


def test_scorecard_passes_the_strict_shape_check(tmp_path):
    doc = _scorecard_document()
    assert [row["fires"] for row in doc["rules"]] == [2, 0]
    assert doc["rules"][1]["breach_s"] == 0 and doc["percentiles"]
    assert [w["end"] for w in doc["breach_windows"]] == [10.0, None]
    assert check_slo_scorecard(doc) == []
    assert check_slo_scorecard(json.loads(_scorecard().to_json())) == []
    path = tmp_path / "card.json"
    path.write_text(json.dumps(doc))
    assert check_slo_scorecard_file(str(path)) == 0
    doc["samples"] = 1.5
    path.write_text(json.dumps(doc))
    assert check_slo_scorecard_file(str(path)) == 1


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (lambda d: d.update(extra=1), "unexpected key 'extra'"),
        (lambda d: d.pop("detection"), "missing key 'detection'"),
        (lambda d: d.update(schema="repro-slo-scorecard/2"), "scorecard.schema"),
        (lambda d: d.update(seed="3"), "scorecard.seed: expected int or NoneType"),
        (lambda d: d.update(interval=5), "scorecard.interval: expected float"),
        (lambda d: d["rules"][0].update(fires=2.0), "rules[0].fires: expected int"),
        (lambda d: d["rules"][0].pop("kind"), "missing key 'kind'"),
        (lambda d: d["alerts"][0].update(at="5"), "alerts[0].at: expected float"),
        (lambda d: d["breach_windows"][0].update(end=10), "breach_windows[0].end"),
        (lambda d: d["entities"][0].update(health=1), "entities[0].health"),
        (lambda d: d["percentiles"][0].update(count=1.0), "percentiles[0].count"),
        (lambda d: d["detection"].update(x="2"), "detection.x: expected float"),
        (lambda d: d["rules"][0].update(kind="ratio"), "rules[0].kind"),
        (lambda d: d["rules"][0].update(fires=3), "rules[0].fires: is not"),
        (lambda d: d["rules"].append(dict(d["rules"][1])), "rule names repeat"),
        (lambda d: d["alerts"][0].update(rule="ghost"), "alerts[0].rule: names no"),
        (lambda d: d["alerts"][0].update(state="pending"), "alerts[0].state"),
        (lambda d: d["breach_windows"].pop(), "one breach window per fire"),
        (lambda d: d["breach_windows"][1].update(end=25.0), "one closed breach window"),
        (lambda d: d["rules"][1].update(worst_series="s"), "rules[1].worst_series"),
    ],
)
def test_scorecard_shape_check_rejects_drift(tamper, expected):
    doc = _scorecard_document()
    tamper(doc)
    problems = check_slo_scorecard(doc)
    assert any(expected in p for p in problems), problems

