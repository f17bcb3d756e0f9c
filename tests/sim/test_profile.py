"""Tests for the sim-core profiling counters (repro.sim.profile)."""

import pytest

from repro.run import ObsConfig, observing, run
from repro.sim import Environment
from repro.sim import profile

#: each test starts on a fresh idle run: nothing counts until
#: ``profile.enable()`` or a session turns counting on
pytestmark = pytest.mark.usefixtures("idle_run")


def _workload(env):
    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env):
        yield env.process(child(env))
        yield env.timeout(2)

    env.process(parent(env))


def test_counters_disabled_by_default():
    profile.counters.reset()
    env = Environment()
    _workload(env)
    env.run()
    assert profile.counters.events_processed == 0
    assert profile.counters.processes_spawned == 0


def test_enable_resets_and_counts():
    env = Environment()
    prof = profile.enable()
    _workload(env)
    env.run()
    profile.disable()
    assert prof.processes_spawned == 2
    assert prof.events_processed > 0
    # a drained queue processed everything it scheduled
    assert prof.events_scheduled == prof.events_processed
    assert prof.heap_pops == prof.heap_pushes
    assert prof.immediate_pops == prof.immediate_pushes
    assert prof.peak_queue_depth >= 1


def test_timeouts_hit_heap_and_triggers_hit_fifo():
    env = Environment()
    prof = profile.enable()
    env.timeout(5)  # positive delay: heap
    ev = env.event()
    ev.succeed()  # zero delay: immediate FIFO
    profile.disable()
    assert prof.heap_pushes == 1
    assert prof.immediate_pushes == 1


def test_direct_resumes_replace_carrier_events():
    env = Environment()
    prof = profile.enable()

    def proc(env):
        gate = env.event()
        gate.succeed("x")
        got = yield gate  # already-triggered: still resumes via the queue
        return got

    env.process(proc(env))
    env.run()
    profile.disable()
    # bootstrap resume at least; no carrier Events scheduled for it
    assert prof.direct_resumes >= 1


def test_snapshot_is_plain_dict():
    prof = profile.enable()
    snap = prof.snapshot()
    profile.disable()
    assert isinstance(snap, dict)
    assert set(snap) >= {
        "events_scheduled",
        "events_processed",
        "heap_pushes",
        "heap_pops",
        "processes_spawned",
        "peak_queue_depth",
    }


# -- nesting (regression: a nested consumer used to clobber the outer
#    caller's counters and switch counting off) --


def test_nested_enable_does_not_reset_outer_counters():
    with observing(ObsConfig()) as outer:
        prof = outer.counters
        env = Environment()
        _workload(env)
        env.run()
        before = prof.snapshot()
        assert before["processes_spawned"] == 2

        with observing(ObsConfig()) as inner:
            assert inner.counters is not prof and inner.counters.enabled
            env2 = Environment()
            _workload(env2)
            env2.run()
            assert inner.counters.processes_spawned == 2

        # the outer block is back, as it was, and still counting — also
        # for the environment that bound it before the inner session
        assert run.counters is prof and prof.enabled
        assert prof.snapshot() == before
        _workload(env)
        env.run()
        assert prof.processes_spawned == 4
    assert not run.counters.enabled


def test_enable_depth_tracks_nesting():
    idle = run.counters
    assert not idle.enabled
    with observing(ObsConfig()) as outer:
        prof = outer.counters
        with observing(ObsConfig()) as inner:
            assert inner.counters.enabled and prof.enabled
        # closing the inner session leaves the outer one counting
        assert run.counters is prof and prof.enabled
    # closing the outermost session brings back the idle block, still off
    assert run.counters is idle and not idle.enabled


def test_unbalanced_disable_is_harmless():
    profile.disable()
    profile.disable()
    assert not profile.counters.enabled
    prof = profile.enable()  # still works afterwards
    assert prof.enabled
    env = Environment()
    _workload(env)
    env.run()
    assert prof.processes_spawned == 2
    profile.disable()
    assert not prof.enabled


def test_snapshot_delta_measures_a_sub_workload():
    prof = profile.enable()
    env = Environment()
    _workload(env)
    env.run()
    baseline = prof.snapshot()

    env2 = Environment()  # a sub-workload measured without a reset
    _workload(env2)
    env2.run()
    after = prof.snapshot()
    profile.disable()
    delta = {field: after[field] - baseline[field] for field in after}

    assert delta["processes_spawned"] == 2
    assert delta["events_processed"] > 0
    # the outer total is the baseline plus the inner delta
    assert prof.events_processed == baseline["events_processed"] + delta["events_processed"]
