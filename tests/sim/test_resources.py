"""Tests for Resource."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.run import ObsConfig, observing
from repro.sim import Environment, Interrupt, Resource, SimulationError

from tests.oracles.resources import ReferenceResource
from tests.sim.test_signal import _LoggedEnvironment


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    timeline = []

    def worker(env, res, tag):
        req = res.request()
        yield req
        timeline.append((env.now, tag, "start"))
        yield env.timeout(10)
        res.release(req)
        timeline.append((env.now, tag, "end"))

    for tag in ("a", "b", "c"):
        env.process(worker(env, res, tag))
    env.run()
    starts = {tag: t for t, tag, kind in timeline if kind == "start"}
    assert starts == {"a": 0.0, "b": 0.0, "c": 10.0}


def test_resource_fifo_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, res, tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1)
        res.release(req)

    for tag in ("first", "second", "third"):
        env.process(worker(env, res, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_release_without_hold_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = res.request()
    res.release(granted)
    with pytest.raises(SimulationError):
        res.release(granted)


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


# -- grants as queue records, held to the Event-based reference ---------------

#: delays that tie often, so grants, releases and interrupts share instants
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.5)


class _ResourceLog(_LoggedEnvironment):
    """Also logs the resource's held and waiting counts after each step."""

    resource = None

    def step(self):
        super().step()
        self.steps[-1] += (self.resource.count, len(self.resource._waiting))


def _run(resource_cls, capacity, script, interrupts, outside, release_outside_at):
    """Run ``script`` (per process: (delay, hold) steps, each a sleep, a
    request, the yield of its grant, a hold and a release) on a
    ``resource_cls`` of ``capacity``, plus ``outside`` requests made
    before the run (released at ``release_outside_at`` once they hold a
    slot) and ``interrupts`` ((delay, target) pairs, each from its own
    process).  Returns the queue log, what each process saw and the
    profile counters."""
    with observing(ObsConfig()) as run:
        env = _ResourceLog()
        res = env.resource = resource_cls(env, capacity)
        seen = []
        procs = []
        outside_grants = [res.request() for _ in range(outside)]

        def worker(env, tag, steps):
            for delay, hold in steps:
                try:
                    yield env.sleep(delay)
                except Interrupt:
                    seen.append((tag, "interrupted-sleeping", env.now))
                    continue
                grant = res.request()
                seen.append((tag, "requested", env.now, res.count, len(res._waiting)))
                try:
                    got = yield grant
                except Interrupt as interrupt:
                    seen.append((tag, "interrupted-waiting", env.now, interrupt.cause))
                    continue
                seen.append((tag, "granted", env.now, env._seq_now, got, res.count))
                try:
                    yield env.sleep(hold)
                except Interrupt:
                    seen.append((tag, "interrupted-holding", env.now))
                res.release(grant)
                seen.append((tag, "released", env.now, res.count, len(res._waiting)))

        def interrupter(env, delay, target):
            yield env.sleep(delay)
            proc = procs[target]
            if proc.is_alive:
                proc.interrupt(cause=(target, env.now))

        def releaser(env, delay):
            yield env.sleep(delay)
            for grant in outside_grants:
                if grant in res._users:
                    res.release(grant)
                    seen.append(("outside", "released", env.now, res.count))

        for tag, steps in enumerate(script):
            procs.append(env.process(worker(env, tag, steps)))
        for delay, target in interrupts:
            env.process(interrupter(env, delay, target % len(procs)))
        if outside:
            env.process(releaser(env, release_outside_at))
        env.run()
        return {
            "pushes": env.pushes,
            "steps": env.steps,
            "seen": seen,
            "held": (res.count, len(res._waiting)),
            "counters": run.counters.snapshot(),
        }


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 3),
    script=st.lists(
        st.lists(st.tuples(st.sampled_from(DELAYS), st.sampled_from(DELAYS)), max_size=4),
        min_size=1, max_size=5,
    ),
    interrupts=st.lists(
        st.tuples(st.sampled_from(DELAYS + (0.25, 2.0, 2.5)), st.integers(0, 4)), max_size=4
    ),
    outside=st.integers(0, 2),
    release_outside_at=st.sampled_from(DELAYS + (3.0,)),
)
def test_grant_records_run_as_the_request_events_they_replace(
    capacity, script, interrupts, outside, release_outside_at
):
    """Grant order and times, every push and pop under its key, the held
    and waiting counts after every step and the profile counters match
    the Event-based resource, with interrupts landing while a grant
    waits, sits queued at its grant instant or is held."""
    args = (capacity, script, interrupts, outside, release_outside_at)
    assert _run(Resource, *args) == _run(ReferenceResource, *args)


def test_interrupt_cancels_a_queued_grant_in_place():
    """A grant queued by a release and interrupted before it runs still
    pops at its key, resumes nobody and keeps its slot."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env):
        grant = res.request()
        yield grant
        yield env.sleep(1.0)
        res.release(grant)  # queues the waiter's grant at t=1
        victim.interrupt()  # ...which the interrupt cancels in place

    def waiter(env):
        grant = res.request()
        try:
            yield grant
        except Interrupt:
            log.append(("interrupted", env.now, res.count))
        yield env.sleep(1.0)
        log.append(("late", env.now))

    env.process(holder(env))
    victim = env.process(waiter(env))
    env.run()
    assert log == [("interrupted", 1.0, 1), ("late", 2.0)]
    assert res.count == 1  # the cancelled grant kept its slot
