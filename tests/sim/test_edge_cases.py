"""Sim-core edge cases: falsy event values, defused failures surfacing
through ``run(until=...)``, interrupt vs same-time events, and empty
composite conditions."""

import pytest

from repro.sim import Environment, Interrupt


# -- falsy-but-not-None event values ------------------------------------------

@pytest.mark.parametrize("value", [0, "", False, 0.0, [], {}])
def test_process_receives_falsy_event_values(value):
    env = Environment()
    received = []

    def waiter(env, gate):
        got = yield gate
        received.append(got)

    gate = env.event()
    env.process(waiter(env, gate))
    gate.succeed(value)
    env.run()
    assert received == [value]
    assert received[0] is value or received[0] == value


@pytest.mark.parametrize("value", [0, "", False])
def test_falsy_timeout_values_delivered(value):
    env = Environment()
    received = []

    def proc(env):
        got = yield env.timeout(1, value=value)
        received.append(got)

    env.process(proc(env))
    env.run()
    assert received == [value]


def test_falsy_value_from_already_processed_event():
    """The direct-resume fast path (target already processed) must also
    carry falsy values through unchanged."""
    env = Environment()
    gate = env.event()
    gate.succeed(0)
    received = []

    def late(env):
        yield env.timeout(1)
        got = yield gate  # processed long ago
        received.append(got)

    env.process(late(env))
    env.run()
    assert received == [0]


# -- run(until=failed_event) with a defused exception -------------------------

def test_run_until_failed_event_raises_even_if_waiter_defused():
    """A waiter catching the failure defuses it inside the simulation,
    but the caller of run(until=ev) still has to see the exception."""
    env = Environment()
    gate = env.event()
    caught_inside = []

    def waiter(env, gate):
        try:
            yield gate
        except KeyError:
            caught_inside.append(env.now)

    def failer(env, gate):
        yield env.timeout(3)
        gate.fail(KeyError("boom"))

    env.process(waiter(env, gate))
    env.process(failer(env, gate))
    with pytest.raises(KeyError):
        env.run(until=gate)
    assert caught_inside == [3.0]


def test_run_until_failed_process_raises_even_if_waiter_defused():
    env = Environment()

    def crasher(env):
        yield env.timeout(1)
        raise RuntimeError("crash")

    p = env.process(crasher(env))

    def watcher(env, p):
        try:
            yield p
        except RuntimeError:
            pass  # defuses the failure inside the simulation

    env.process(watcher(env, p))
    with pytest.raises(RuntimeError, match="crash"):
        env.run(until=p)


# -- interrupt() racing same-time normal events -------------------------------

def test_interrupt_preempts_same_time_timeout():
    """An interrupt scheduled at time t is URGENT: it beats the victim's
    own timeout that fires at the same t, even though the timeout was
    scheduled earlier (lower sequence number)."""
    env = Environment()
    log = []

    def interrupter(env):
        yield env.timeout(5)
        victim.interrupt(cause="race")

    def sleeper(env):
        try:
            got = yield env.timeout(5, value="timeout-won")
            log.append(("timeout", got, env.now))
        except Interrupt as intr:
            log.append(("interrupt", intr.cause, env.now))
            yield env.timeout(1)
            log.append(("resumed", env.now))

    # interrupter created first so its t=5 resume processes first
    env.process(interrupter(env))
    victim = env.process(sleeper(env))
    env.run()
    # the interrupt won the race; the stale timeout resume never fired
    assert log == [("interrupt", "race", 5.0), ("resumed", 6.0)]


def test_interrupt_before_first_resume_is_delivered():
    """Interrupting a process that has not started yet (its bootstrap
    resume is still queued at the same time) must not double-resume."""
    env = Environment()
    log = []

    def victim_proc(env):
        log.append("started")
        yield env.timeout(1)
        log.append("finished")

    def interrupter(env):
        victim.interrupt(cause="early")
        return
        yield  # pragma: no cover - make this a generator

    # interrupter first: its bootstrap resume runs before the victim's
    env.process(interrupter(env))
    victim = env.process(victim_proc(env))
    with pytest.raises(Interrupt):
        env.run()
    assert log == []  # generator never started: interrupt landed first
    assert not victim.is_alive


def test_multiple_interrupts_same_time():
    env = Environment()
    causes = []

    def sleeper(env):
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                causes.append(intr.cause)

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt(cause="first")
        victim.interrupt(cause="second")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert causes == ["first", "second"]


def test_interrupt_detaches_from_waited_event():
    """After an interrupt, the event the process was waiting on still
    triggers and processes normally — it just no longer resumes the
    interrupted process."""
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(10, value="late")
        except Interrupt:
            log.append(("interrupted", env.now))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 2.0)]
    assert env.now == 10.0  # the detached timeout still drained the queue
