"""Two simulations interleaved in one process, each on its own world.

A :class:`~repro.world.WorldState` copy of :data:`repro.world.world` is
the whole determinism state: pausing one simulation, running another
from pristine, then reinstalling the first one's capture must leave both
outputs byte-identical to running each alone.
"""

import dataclasses
import json

import pytest

from repro.scenarios.base import WORKFLOW_IMAGE
from repro.scenarios.bridge import BridgeOperatorScenario
from repro.scenarios.kubelet_in_allocation import KubeletInAllocationScenario
from repro.sim import Environment
from repro.workload.generators import PodBatchGenerator
from repro.world import WorldState

HORIZON = 4000.0
#: virtual seconds A runs past submission before it is paused
PAUSE_AFTER = 0.5


def _start(scenario_cls):
    env = Environment()
    scenario = scenario_cls(env, n_nodes=2)
    env.run(until=scenario.provision())
    scenario.submit(PodBatchGenerator(WORKFLOW_IMAGE, seed=0).batch(4))
    return env, scenario


def _finish(env, scenario) -> str:
    """Run to the horizon; the output names every drawn id it can see."""
    env.run(until=HORIZON)
    pods = [
        {
            "uid": pod.metadata.uid,
            "phase": pod.phase.name,
            "node": pod.node_name,
            "times": [pod.start_time, pod.end_time],
            "containers": [
                [r.container.id, r.container.events, r.timings]
                for r in pod.container_results
            ],
        }
        for pod in scenario.pods
    ]
    metrics = dataclasses.asdict(scenario.metrics())
    return json.dumps({"image": scenario.image.digest, "pods": pods, "metrics": metrics})


def _alone(scenario_cls) -> str:
    WorldState.pristine().install()
    return _finish(*_start(scenario_cls))


@pytest.fixture
def _world_guard():
    saved = WorldState.capture()
    yield
    saved.install()


def test_interleaved_simulations_match_separate_runs(_world_guard):
    a_alone = _alone(KubeletInAllocationScenario)
    b_alone = _alone(BridgeOperatorScenario)

    # Start A and pause it mid-run, before any pod's container exists.
    WorldState.pristine().install()
    env_a, scenario_a = _start(KubeletInAllocationScenario)
    env_a.run(until=env_a.now + PAUSE_AFTER)
    assert not any(pod.container_results for pod in scenario_a.pods)
    paused_a = WorldState.capture()

    # B runs to completion on a pristine world of its own.
    WorldState.pristine().install()
    b_interleaved = _finish(*_start(BridgeOperatorScenario))

    paused_a.install()
    a_interleaved = _finish(env_a, scenario_a)

    assert a_interleaved == a_alone
    assert b_interleaved == b_alone


def test_resuming_on_the_wrong_world_is_detected(_world_guard):
    """Without reinstalling its capture, the paused run draws ids B has
    already moved past — the output check above would catch it."""
    a_alone = _alone(KubeletInAllocationScenario)

    WorldState.pristine().install()
    env_a, scenario_a = _start(KubeletInAllocationScenario)
    env_a.run(until=env_a.now + PAUSE_AFTER)
    WorldState.pristine().install()
    _finish(*_start(BridgeOperatorScenario))

    assert _finish(env_a, scenario_a) != a_alone
