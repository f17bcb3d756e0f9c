"""``Environment.sleep`` against the ``Timeout`` it stands in for.

A process that sleeps must run exactly as one that yields a timeout
nothing else waits on: the same pushes under the same keys, the same
pops in ``(time, sequence)`` order, the same values delivered and the
same profile counters, interrupts included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.run import ObsConfig, observing
from repro.sim import Environment, Interrupt, SimulationError

from tests.sim.test_signal import _LoggedEnvironment

#: delays that tie often, zero (the immediate FIFO) included
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.5)


def _run(script, interrupts, use_sleep):
    """Run ``script`` (per process: whether it may sleep, and its
    (delay, value) steps) plus ``interrupts`` ((delay, target) pairs,
    each from its own process).  With ``use_sleep`` False every process
    yields timeouts.  Returns the queue log, what each step received and
    the profile counters."""
    with observing(ObsConfig()) as run:
        env = _LoggedEnvironment()
        got = []
        procs = []

        def sleeper(env, tag, sleeps, steps):
            for delay, value in steps:
                try:
                    if sleeps:
                        received = yield env.sleep(delay, value)
                    else:
                        received = yield env.timeout(delay, value)
                except Interrupt as interrupt:
                    received = ("interrupted", interrupt.cause)
                got.append((tag, env.now, env._seq_now, received))
            return tag

        def interrupter(env, delay, target):
            yield env.timeout(delay)
            proc = procs[target]
            if proc.is_alive:
                proc.interrupt(cause=(target, env.now))

        for tag, (sleeps, steps) in enumerate(script):
            procs.append(env.process(sleeper(env, tag, sleeps and use_sleep, steps)))
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


@settings(max_examples=200, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.booleans(),
            st.lists(
                st.tuples(st.sampled_from(DELAYS), st.sampled_from((None, 0, "v", (1, 2)))),
                max_size=6,
            ),
        ),
        min_size=1,
        max_size=5,
    ),
    interrupts=st.lists(
        st.tuples(st.sampled_from(DELAYS + (0.125, 0.75, 2.0)), st.integers(0, 4)),
        max_size=4,
    ),
)
def test_sleep_runs_as_the_timeout_it_replaces(script, interrupts):
    got = _run(script, interrupts, use_sleep=True)
    want = _run(script, interrupts, use_sleep=False)
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
        slept = env.sleep(0, "now")
        assert queued(env) == (heap, fifo + 1)
        assert (yield slept) == "now"
        heap, fifo = queued(env)
        slept = env.sleep(2.0)
        assert queued(env) == (heap + 1, fifo)
        try:
            yield slept
        except Interrupt:
            log.append(("interrupted", env.now))
        log.append((yield env.sleep(0.5, "late")))

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
