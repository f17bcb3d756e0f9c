"""Tests for Resource."""

import pytest

from repro.sim import Environment, Resource, SimulationError


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
