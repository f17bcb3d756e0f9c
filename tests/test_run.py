"""Two observed chaos runs interleaved in one process, each on its own run.

A :class:`~repro.run.Run` holds everything a run is observed through —
profile counters, metrics registry, tracer, time-series recorder and
fault injector — and an ``observing()`` session swaps a fresh set in and
the previous one back.  Pausing one seeded chaos run mid-flight, running
another in a session of its own, then resuming the first must leave both
runs' trace, metrics and time-series documents byte-identical to running
each alone (the world state is swapped alongside, as in
``tests/test_world.py``).
"""

import contextlib
import json

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.timeseries import install_sampler
from repro.obs.trace import export_json
from repro.run import ObsConfig, Run, observing, run
from repro.scenarios.base import WORKFLOW_IMAGE
from repro.scenarios.bridge import BridgeOperatorScenario
from repro.scenarios.kubelet_in_allocation import KubeletInAllocationScenario
from repro.sim import Environment
from repro.workload.generators import PodBatchGenerator
from repro.world import WorldState

#: every layer on, as the ``chaos --metrics --timeseries`` verb records
OBSERVED = ObsConfig(metrics=True, trace=True, timeseries=5.0)
N_NODES = 2
HORIZON = 4000.0
#: virtual seconds a run goes on past submission before it is paused
PAUSE_AFTER = 0.5
SEED_A, SEED_B = 3, 5


def _start(scenario_cls, seed):
    """Arm a seeded plan on the current run, provision, submit."""
    env = Environment()
    nodes = [f"nid{i:04}" for i in range(N_NODES)]
    run.faults.arm(FaultPlan.generate(seed=seed, horizon=600.0, node_names=nodes), env)
    install_sampler(env, run.metrics)
    scenario = scenario_cls(env, n_nodes=N_NODES, seed=seed)
    env.run(until=scenario.provision())
    scenario.submit(PodBatchGenerator(WORKFLOW_IMAGE, seed=seed).batch(4))
    return env, scenario


def _finish(env, scenario) -> dict[str, str]:
    """Run to the horizon and export the current run's three documents."""
    env.run(until=HORIZON)
    run.recorder.sample_due(env.now, run.metrics)
    run.faults.disarm()
    return {
        "trace": export_json(),
        "metrics": json.dumps(run.metrics.snapshot(), sort_keys=True),
        "timeseries": run.recorder.to_json(),
    }


def _alone(scenario_cls, seed) -> dict[str, str]:
    WorldState.pristine().install()
    with observing(OBSERVED):
        return _finish(*_start(scenario_cls, seed))


@pytest.fixture
def _world_guard():
    saved = WorldState.capture()
    yield
    saved.install()


@pytest.fixture(scope="module")
def alone():
    saved = WorldState.capture()
    docs = (_alone(KubeletInAllocationScenario, SEED_A),
            _alone(BridgeOperatorScenario, SEED_B))
    saved.install()
    return docs


def test_alone_runs_inject_and_record(alone):
    for docs in alone:
        assert "faults.injected" in docs["metrics"]
        assert "fault.injected" in docs["trace"]
        assert json.loads(docs["timeseries"])["samples"] > 0


def test_interleaved_sessions_match_separate_runs(alone, _world_guard):
    WorldState.pristine().install()
    with observing(OBSERVED):
        env_a, scenario_a = _start(KubeletInAllocationScenario, SEED_A)
        env_a.run(until=env_a.now + PAUSE_AFTER)
        paused_a = WorldState.capture()

        # B runs to completion in a session (and on a world) of its own
        with observing(OBSERVED):
            WorldState.pristine().install()
            b_interleaved = _finish(*_start(BridgeOperatorScenario, SEED_B))

        paused_a.install()
        a_interleaved = _finish(env_a, scenario_a)

    assert (a_interleaved, b_interleaved) == alone


class _Parked:
    """A session parked outside the process-wide run: its parts and world."""

    def __init__(self):
        self.parts = Run(OBSERVED)
        self.world = WorldState.pristine()

    @contextlib.contextmanager
    def resumed(self):
        run.swap(self.parts)  # self.parts now holds the run it displaced
        self.world.install()
        try:
            yield
        finally:
            self.world = WorldState.capture()
            run.swap(self.parts)


def test_two_paused_runs_finish_as_if_alone(alone, _world_guard):
    """Both runs paused mid-flight at once, then finished in turn."""
    a, b = _Parked(), _Parked()
    with a.resumed():
        env_a, scenario_a = _start(KubeletInAllocationScenario, SEED_A)
        env_a.run(until=env_a.now + PAUSE_AFTER)
    with b.resumed():
        env_b, scenario_b = _start(BridgeOperatorScenario, SEED_B)
        env_b.run(until=env_b.now + PAUSE_AFTER)
    with a.resumed():
        a_docs = _finish(env_a, scenario_a)
    with b.resumed():
        b_docs = _finish(env_b, scenario_b)
    assert (a_docs, b_docs) == alone
