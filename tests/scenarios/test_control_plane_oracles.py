"""The §6.5 scenario at 64 nodes equals its linear control-plane oracle.

With the k8s linear pass, the linear backfill scheduler and the
store-scan kubelet swapped in (:mod:`tests.oracles.control_plane`), the
kubelet-in-allocation scenario must reproduce the production control
plane's metrics and every pod's node, phase and start/end times exactly.
"""

import dataclasses

from repro.scenarios import KubeletInAllocationScenario
from repro.scenarios.base import WORKFLOW_IMAGE
from repro.sim import Environment
from repro.workload.generators import PodBatchGenerator

from tests.oracles.control_plane import use_control_plane_oracles

NODES = 64
PODS_PER_NODE = 2


def run_scenario():
    env = Environment()
    scenario = KubeletInAllocationScenario(env, n_nodes=NODES)
    env.run(until=scenario.provision())
    pods = PodBatchGenerator(
        WORKFLOW_IMAGE, seed=5, cpu_choices=(8,), duration_range=(60, 60)
    ).batch(NODES * PODS_PER_NODE)
    submit_at = env.now
    scenario.submit(pods)
    env.run(until=submit_at + 2000)
    scenario.teardown()
    env.run(until=env.now + 50)
    outcomes = sorted(
        (p.metadata.name, p.node_name, p.phase.value, p.start_time, p.end_time)
        for p in pods
    )
    return dataclasses.asdict(scenario.metrics()), outcomes


def test_scenario_matches_control_plane_oracles(monkeypatch):
    metrics, outcomes = run_scenario()
    assert metrics["pods_completed"] == NODES * PODS_PER_NODE
    use_control_plane_oracles(monkeypatch)
    oracle_metrics, oracle_outcomes = run_scenario()
    assert oracle_outcomes == outcomes
    assert oracle_metrics == metrics
