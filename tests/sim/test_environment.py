"""Tests for the DES core: clock, event ordering, processes."""

import pytest

from repro.sim import Environment, Event, Interrupt, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc(env):
        got = yield env.timeout(1, value="payload")
        seen.append(got)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(3)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_and_sets_clock():
    env = Environment()
    log = []

    def proc(env):
        while True:
            yield env.timeout(10)
            log.append(env.now)

    env.process(proc(env))
    env.run(until=35)
    assert log == [10.0, 20.0, 30.0]
    assert env.now == 35.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=3)


def test_process_return_value_via_run_until_event():
    env = Environment()

    def proc(env):
        yield env.timeout(4)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42
    assert env.now == 4.0


def test_process_waits_on_process():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(7)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        log.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [(7.0, "child-result")]


def test_event_succeed_resumes_waiters():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter(env, gate):
        val = yield gate
        woke.append((env.now, val))

    def opener(env, gate):
        yield env.timeout(3)
        gate.succeed("open")

    env.process(waiter(env, gate))
    env.process(opener(env, gate))
    env.run()
    assert woke == [(3.0, "open")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_throws_into_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env, gate):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env, gate))
    gate.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_through_run_until():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("crash")

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="crash"):
        env.run(until=p)


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc(env):
        yield 5  # type: ignore[misc]

    p = env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=p)


def test_interrupt_resumes_immediately_with_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt(cause="preempted")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(2.0, "preempted")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yielding_already_processed_event_resumes():
    env = Environment()
    log = []
    gate = env.event()
    gate.succeed("early")

    def late_waiter(env, gate):
        yield env.timeout(5)
        val = yield gate
        log.append((env.now, val))

    env.process(late_waiter(env, gate))
    env.run()
    assert log == [(5.0, "early")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(9)
    assert env.peek() == 9.0
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_nested_processes_compose():
    env = Environment()

    def level2(env):
        yield env.timeout(1)
        return 2

    def level1(env):
        v = yield env.process(level2(env))
        yield env.timeout(1)
        return v + 1

    def level0(env):
        v = yield env.process(level1(env))
        return v + 1

    p = env.process(level0(env))
    assert env.run(until=p) == 4
    assert env.now == 2.0
