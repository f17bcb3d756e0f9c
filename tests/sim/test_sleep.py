"""``Environment.sleep`` and ``sleep_until`` against the events they
stand in for.

A process that sleeps must run exactly as one that yields an event
nothing else waits on (a ``timeout`` for ``sleep``, the absolute-time
:func:`~tests.oracles.signal.event_at` for ``sleep_until``): the same
pushes under the same keys, the same pops in ``(time, sequence)`` order,
the same values delivered and the same profile counters, interrupts and
refused (past or NaN) times included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.run import ObsConfig, observing
from repro.sim import Environment, Interrupt, SimulationError

from tests.oracles.signal import event_at
from tests.sim.test_signal import _LoggedEnvironment

#: delays that tie often, zero (the immediate FIFO) included
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.5)
#: absolute times that tie often: "now" (the immediate FIFO), times
#: that are in the past once the clock moved, and NaN
TIMES = ("now", "now", 0.0, 0.5, 1.0, 1.5, 2.5, math.nan)


def _run(script, interrupts, use_records):
    """Run ``script`` (per process: whether it may use records, and its
    steps: ``("for", delay)`` or ``("until", time)``) plus
    ``interrupts`` ((delay, target) pairs, each from its own process).
    With ``use_records`` False every process yields the reference
    events.  Returns the queue log, what each step received and the
    profile counters."""
    with observing(ObsConfig()) as run:
        env = _LoggedEnvironment()
        got = []
        procs = []

        def sleeper(env, tag, records, steps):
            for kind, arg in steps:
                try:
                    if kind == "for":
                        wait = env.sleep(arg) if records else env.timeout(arg)
                    else:
                        when = env.now if arg == "now" else arg
                        wait = env.sleep_until(when) if records else event_at(env, when)
                except ValueError:
                    got.append((tag, env.now, env._seq_now, "refused"))
                    continue
                try:
                    received = yield wait
                except Interrupt as interrupt:
                    received = ("interrupted", interrupt.cause)
                got.append((tag, env.now, env._seq_now, received))
            return tag

        def interrupter(env, delay, target):
            yield env.timeout(delay)
            proc = procs[target]
            if proc.is_alive:
                proc.interrupt(cause=(target, env.now))

        for tag, (records, steps) in enumerate(script):
            procs.append(env.process(sleeper(env, tag, records and use_records, steps)))
        for delay, target in interrupts:
            env.process(interrupter(env, delay, target % len(procs)))
        env.run()
        return {
            "pushes": env.pushes,
            "steps": env.steps,
            "got": got,
            "results": [proc.value for proc in procs],
            "counters": run.counters.snapshot(),
        }


def _scripts(step):
    return st.lists(
        st.tuples(st.booleans(), st.lists(step, max_size=6)), min_size=1, max_size=5
    )


INTERRUPTS = st.lists(
    st.tuples(st.sampled_from(DELAYS + (0.125, 0.75, 2.0)), st.integers(0, 4)),
    max_size=4,
)
FOR = st.tuples(st.just("for"), st.sampled_from(DELAYS))
UNTIL = st.tuples(st.just("until"), st.sampled_from(TIMES))


@settings(max_examples=200, deadline=None)
@given(script=_scripts(FOR), interrupts=INTERRUPTS)
def test_sleep_runs_as_the_timeout_it_replaces(script, interrupts):
    got = _run(script, interrupts, use_records=True)
    want = _run(script, interrupts, use_records=False)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(script=_scripts(st.one_of(FOR, UNTIL)), interrupts=INTERRUPTS)
def test_sleep_until_runs_as_the_event_it_replaces(script, interrupts):
    got = _run(script, interrupts, use_records=True)
    want = _run(script, interrupts, use_records=False)
    assert got == want


def test_sleep_queues_where_timeout_does():
    """Zero delays go to the immediate FIFO, positive ones to the heap,
    and a cancelled sleep still pops."""
    env = Environment()
    log = []

    def queued(env):
        return len(env._queue), len(env._immediate)

    def sleeper(env):
        heap, fifo = queued(env)
        slept = env.sleep(0)
        assert queued(env) == (heap, fifo + 1)
        assert (yield slept) is None
        heap, fifo = queued(env)
        slept = env.sleep(2.0)
        assert queued(env) == (heap + 1, fifo)
        try:
            yield slept
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.sleep(0.5)
        log.append("late")

    def interrupter(env, proc):
        yield env.sleep(1.0)
        assert len(env._queue) == 1  # the sleeper's heap record
        proc.interrupt()

    proc = env.process(sleeper(env))
    env.process(interrupter(env, proc))
    env.run()
    assert log == [("interrupted", 1.0), "late"]
    assert env.now == 2.0  # the cancelled record popped at its key


def test_sleep_outside_a_process_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.sleep(1.0)
    assert env.peek() == float("inf")


def test_sleep_with_a_negative_delay_raises():
    env = Environment()
    raised = []

    def proc(env):
        try:
            env.sleep(-0.5)
        except ValueError:
            raised.append(env.now)
        yield env.sleep(0)

    env.process(proc(env))
    env.run()
    assert raised == [0.0]


def test_sleep_until_exact_time():
    """The record is queued at exactly ``when``, not at ``now`` plus a
    delay rebuilt from it; ``when == now`` goes to the immediate FIFO."""
    env = Environment()
    when = 7.7  # 1.1 + (7.7 - 1.1) is 7.699999999999999
    log = []

    def proc(env):
        yield env.sleep(1.1)
        heap = len(env._queue)
        slept = env.sleep_until(when)
        assert env._queue[0][0] == when and len(env._queue) == heap + 1
        yield slept
        log.append(env.now)
        fifo = len(env._immediate)
        slept = env.sleep_until(env.now)
        assert len(env._immediate) == fifo + 1
        assert (yield slept) is None
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [when, when]


def test_sleep_until_rejects_past_and_nan():
    """A past or NaN time raises and queues nothing."""
    env = Environment()
    raised = []

    def proc(env):
        yield env.sleep(5.0)
        queued = (len(env._queue), len(env._immediate))
        for when in (4.0, math.nan):
            with pytest.raises(ValueError):
                env.sleep_until(when)
            raised.append(queued == (len(env._queue), len(env._immediate)))

    env.process(proc(env))
    env.run()
    assert raised == [True, True] and env.now == 5.0


def test_sleep_until_outside_a_process_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.sleep_until(1.0)
    assert env.peek() == float("inf")
