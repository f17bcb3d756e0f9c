"""The virtual-time span tracer (repro.obs.trace)."""

import json

from repro.obs import trace
from repro.obs.export import to_chrome_json, to_events, validate_chrome_trace
from repro.obs.trace import MAIN_TID, Tracer
from repro.run import ObsConfig, observing, run
from repro.sim import Environment


def test_disabled_by_default_records_nothing():
    t = Tracer()
    with t.span("engine.run", engine="sarus"):
        pass
    t.complete("fs.load_all", 1.0)
    t.instant("wlm.job_start")
    assert len(t) == 0


def test_disabled_span_is_shared_null_object():
    t = Tracer()
    a = t.span("a")
    b = t.span("b")
    assert a is b  # one preallocated no-op: zero per-call cost when off


def test_span_records_balanced_b_e_with_virtual_time():
    t = Tracer()
    t.enabled = True
    env = Environment()
    t.attach(env)

    def proc(env):
        with t.span("engine.run", engine="sarus"):
            yield env.timeout(2.5)

    env.process(proc(env))
    env.run()
    (ph0, name0, ts0, tid0, args0, _), (ph1, name1, ts1, tid1, *_rest) = t.events
    assert (ph0, name0, ts0) == ("B", "engine.run", 0.0)
    assert (ph1, name1, ts1) == ("E", "engine.run", 2.5)
    assert tid0 == tid1 != MAIN_TID
    assert args0 == {"engine": "sarus"}


def test_spans_nest_per_process_across_interleaving():
    """Two processes interleave on the clock, but each process's spans
    stay properly nested on its own thread row."""
    t = Tracer()
    t.enabled = True
    env = Environment()
    t.attach(env)

    def worker(env, name, delay):
        with t.span(f"{name}.outer"):
            yield env.timeout(delay)
            with t.span(f"{name}.inner"):
                yield env.timeout(delay)

    env.process(worker(env, "a", 1.0))
    env.process(worker(env, "b", 1.5))
    env.run()
    doc = json.loads(to_chrome_json(t))
    assert validate_chrome_trace(doc) == []
    tids = {tid for ph, _n, _ts, tid, *_ in t.events if ph in "BE"}
    assert len(tids) == 2


def test_span_closes_on_exception():
    t = Tracer()
    t.enabled = True
    try:
        with t.span("engine.run"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert [ph for ph, *_ in t.events] == ["B", "E"]


def test_complete_advances_synthetic_cursor_without_env():
    t = Tracer()
    t.enabled = True
    t.complete("engine.phase.pull", 3.0)
    t.complete("engine.phase.mount", 0.5)
    (_, _, ts0, _, _, dur0), (_, _, ts1, _, _, dur1) = t.events
    assert (ts0, dur0) == (0.0, 3.0)
    assert (ts1, dur1) == (3.0, 0.5)  # laid out sequentially, not stacked


def test_complete_uses_env_clock_when_attached():
    t = Tracer()
    t.enabled = True
    env = Environment()
    t.attach(env)

    def proc(env):
        yield env.timeout(7.0)
        t.complete("registry.pull", 1.25)

    env.process(proc(env))
    env.run()
    _ph, _name, ts, _tid, _args, dur = t.events[0]
    assert (ts, dur) == (7.0, 1.25)


def test_environment_attaches_itself_while_enabled():
    with observing(ObsConfig(trace=True)) as traced:
        env = Environment()
        assert traced.tracer._env is env


def test_environment_does_not_attach_while_disabled():
    env = Environment()
    assert run.tracer._env is not env


def test_tids_are_stable_and_named_after_processes():
    t = Tracer()
    t.enabled = True
    env = Environment()
    t.attach(env)

    def proc(env):
        t.instant("wlm.job_start")
        yield env.timeout(1)
        t.instant("wlm.job_end")

    env.process(proc(env), name="slurmctld")
    env.run()
    tid_a = t.events[0][3]
    tid_b = t.events[1][3]
    assert tid_a == tid_b
    assert t.thread_name(tid_a) == "slurmctld"


def test_categories_are_name_prefixes():
    t = Tracer()
    t.enabled = True
    t.instant("engine.pull")
    t.instant("fs.mds.batch")
    t.complete("wlm.schedule_pass", 0.1)
    assert t.categories() == {"engine", "fs", "wlm"}


def test_export_emits_metadata_and_sorted_microsecond_ts():
    t = Tracer()
    t.enabled = True
    t.complete("b.second", 1.0)  # synthetic cursor: starts at 0
    t.instant("a.first")  # lands at cursor == 1.0
    events = to_events(t)
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    data = [e for e in events if e["ph"] != "M"]
    assert [e["ts"] for e in data] == [0.0, 1e6]
    assert data[0]["dur"] == 1e6
    assert data[1]["s"] == "t"


def test_export_json_is_deterministic_and_valid():
    def build():
        t = Tracer()
        t.enabled = True
        env = Environment()
        t.attach(env)

        def proc(env):
            with t.span("engine.run", engine="podman"):
                yield env.timeout(1)

        env.process(proc(env))
        env.run()
        return to_chrome_json(t)

    one, two = build(), build()
    assert one == two
    assert validate_chrome_trace(one) == []


def test_module_singleton_roundtrip(tmp_path):
    """``trace.export_json`` writes the current run's tracer."""
    with observing(ObsConfig(trace=True)) as traced:
        with traced.tracer.span("engine.run"):
            pass
        out = tmp_path / "trace.json"
        text = trace.export_json(str(out))
    assert '"engine.run"' in text
    assert out.read_text() == text
    assert validate_chrome_trace(text) == []


def test_validator_rejects_malformed_traces():
    assert validate_chrome_trace("{not json") != []
    assert validate_chrome_trace({"nope": 1}) != []
    base = {"pid": 1, "tid": 1}
    unbalanced = {"traceEvents": [
        {"name": "x", "ph": "B", "ts": 0, **base},
    ]}
    assert any("unclosed" in p for p in validate_chrome_trace(unbalanced))
    mismatched = {"traceEvents": [
        {"name": "x", "ph": "B", "ts": 0, **base},
        {"name": "y", "ph": "E", "ts": 1, **base},
    ]}
    assert any("does not match" in p for p in validate_chrome_trace(mismatched))
    unsorted = {"traceEvents": [
        {"name": "x", "ph": "i", "ts": 5, **base},
        {"name": "y", "ph": "i", "ts": 1, **base},
    ]}
    assert any("unsorted" in p for p in validate_chrome_trace(unsorted))
    bad_x = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, **base}]}
    assert any("dur" in p for p in validate_chrome_trace(bad_x))


def test_wall_clock_args_only_when_opted_in():
    t = Tracer()
    t.enabled = True
    with t.span("engine.run"):
        pass
    assert t.events[1][4] is None  # E has no args by default
    t.wall_clock = True
    with t.span("engine.run"):
        pass
    assert "wall_ms" in t.events[-1][4]
