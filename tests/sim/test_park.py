"""``Signal.park`` against the token-``Event`` park it replaced
(:class:`tests.oracles.signal.ReferenceSignal`).

A park is a ``_Resume`` record that a fire or an interrupt cancels in
place.  Processes that park on one of two signals, with and without
deadlines, that are fired at random instants (deadline ties included),
interrupted while parked (and fired again before the ``Interrupt`` is
delivered), and that sometimes skip their ``unpark``,
must run exactly as they do on reference tokens: the same pushes under
the same keys, the same pops, the same values delivered, the same
registrations left and the same profile counters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.run import ObsConfig, observing
from repro.sim import Environment, Interrupt, Signal, SimulationError

from tests.oracles.signal import ReferenceSignal
from tests.sim.test_signal import _LoggedEnvironment

#: offsets that tie often, zero (the immediate FIFO) included
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)


def _run(script, fires, interrupts, signal_cls):
    """Run ``script`` (per process: steps of (park or sleep, signal,
    deadline offset or None, skip the unpark)), ``fires`` ((delay,
    signal) pairs) and ``interrupts`` ((delay, target, signal to fire
    right after the interrupt or None) triples), each fire and interrupt
    from its own process.  Returns the queue log, what each step
    received, the fire counts, the registrations left and the profile
    counters."""
    with observing(ObsConfig()) as run:
        env = _LoggedEnvironment()
        signals = (signal_cls(env), signal_cls(env))
        got = []
        procs = []

        def parker(env, tag, steps):
            for n, (kind, which, offset, sloppy) in enumerate(steps):
                sig = signals[which]
                dropped = None
                try:
                    if kind == "sleep":
                        received = yield env.sleep(offset or 0.0)
                    else:
                        token = sig.park(None if offset is None else env.now + offset)
                        try:
                            received = yield token
                        finally:
                            dropped = None if sloppy else sig.unpark(token)
                except Interrupt as interrupt:
                    received = ("interrupted", interrupt.cause)
                if received is Signal.FIRED:
                    received = "fired"
                got.append((tag, n, env.now, env._seq_now, received, dropped))
            return tag

        def firer(env, delay, which):
            yield env.sleep(delay)
            got.append(("fire", which, env.now, signals[which].fire()))

        def interrupter(env, delay, target, then_fire):
            yield env.sleep(delay)
            proc = procs[target]
            if proc.is_alive:
                proc.interrupt(cause=(target, env.now))
            if then_fire is not None:  # before the Interrupt is delivered
                got.append(("fire", then_fire, env.now, signals[then_fire].fire()))

        for tag, steps in enumerate(script):
            procs.append(env.process(parker(env, tag, steps)))
        for delay, which in fires:
            env.process(firer(env, delay, which))
        for delay, target, then_fire in interrupts:
            env.process(interrupter(env, delay, target % len(procs), then_fire))
        env.run()
        return {
            "pushes": env.pushes,
            "steps": env.steps,
            "got": got,
            "results": [proc.value if not proc.is_alive else "parked" for proc in procs],
            "waiting": [sig.waiting for sig in signals],
            "counters": run.counters.snapshot(),
        }


@settings(max_examples=250, deadline=None)
@given(
    script=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(("park", "park", "park", "sleep")),
                st.integers(0, 1),
                st.sampled_from(DELAYS + (None, None)),
                st.booleans(),
            ),
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    ),
    fires=st.lists(
        st.tuples(st.sampled_from(DELAYS + (0.125, 0.75, 1.5)), st.integers(0, 1)),
        max_size=6,
    ),
    interrupts=st.lists(
        st.tuples(
            st.sampled_from(DELAYS + (0.125, 0.75)),
            st.integers(0, 3),
            st.sampled_from((None, 0, 1)),
        ),
        max_size=3,
    ),
)
def test_record_park_runs_as_the_token_park_it_replaces(script, fires, interrupts):
    got = _run(script, fires, interrupts, Signal)
    want = _run(script, fires, interrupts, ReferenceSignal)
    assert got == want


def test_fire_cancels_the_deadline_record_in_place():
    """The woken process resumes at the fire; its deadline record stays
    queued, cancelled, and still pops at the deadline."""
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park(4.0)
        assert len(env._queue) == 1  # the deadline record
        log.append((yield token) is Signal.FIRED)
        sig.unpark(token)
        log.append((env.now, token.process))

    def producer(env):
        yield env.sleep(1.0)
        assert sig.fire() == 1

    env.process(sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == [True, (1.0, None)]
    assert env.now == 4.0  # the cancelled record popped at its key
    assert sig.waiting == 0


def test_park_with_a_past_deadline_raises():
    env = Environment()
    sig = Signal(env)
    raised = []

    def proc(env):
        yield env.sleep(2.0)
        with pytest.raises(ValueError):
            sig.park(1.0)
        raised.append(sig.waiting)

    env.process(proc(env))
    env.run()
    assert raised == [0]
    with pytest.raises(SimulationError):
        sig.park(3.0)
