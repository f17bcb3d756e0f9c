"""Tests for the event state machine."""

import pytest

from repro.sim import Environment, SimulationError


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_cross_environment_events_rejected():
    env1, env2 = Environment(), Environment()
    t = env2.timeout(1)

    def proc(env):
        yield t

    env1.process(proc(env1))
    with pytest.raises(SimulationError, match="different environment"):
        env1.run()
