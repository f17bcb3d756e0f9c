"""Failure handling: dead kubelets, pod eviction, controller behaviour."""

import pytest

from repro.faults.plan import FaultPlan
from repro.k8s import APIServer, K3sServer, Kubelet, NodeLifecycleController, PodPhase
from repro.run import ObsConfig, observing
from repro.sim import Environment

from tests.k8s.conftest import make_cri
from tests.k8s.test_kubelet_and_bridges import make_pod


@pytest.mark.parametrize("halt", ["stop", "crash"])
def test_halt_before_registration_drains_cleanly(halt, registry):
    """Stopped or crashed inside its start-up, before the registration
    RPC returns: the run drains, no Node was written, no watch or fault
    handler is left, and nothing is parked on the wakeup signal."""
    env = Environment()
    api = APIServer()
    cri, _host = make_cri(registry)
    kubelet = Kubelet(env, api, "knode", cri)
    with observing(ObsConfig()) as run:
        run.faults.arm(FaultPlan([]), env)
        kubelet.start()
        assert run.faults._handlers["wlm.node"] == [kubelet._on_node_fault]
        env.run(until=1.0)
        getattr(kubelet, halt)()
        env.run()
        assert run.faults._handlers["wlm.node"] == []
    assert not kubelet._proc.is_alive
    assert kubelet.k8s_node is None
    assert api.get("Node", "knode") is None
    pods = api._watchers.get("Pod")
    assert pods is None or not (pods.unkeyed or pods.keyed)
    assert kubelet._wakeup.waiting == 0


def test_dead_kubelet_marks_node_not_ready_and_evicts_pods(env, registry):
    server = K3sServer(env)
    cri, host = make_cri(registry)
    kubelet = Kubelet(env, server.api, "knode", cri)
    controller_holder = {}

    def bring_up(env):
        yield server.ready
        kubelet.start()
        controller_holder["ctl"] = NodeLifecycleController(env, server.api)

    env.process(bring_up(env))
    # a service pod that never finishes on its own
    pod = make_pod("stuck-service", duration=None)

    def submit_then_kill(env):
        yield env.timeout(15)
        server.api.create("Pod", pod)
        yield env.timeout(20)
        assert pod.phase is PodPhase.RUNNING
        kubelet.stop()  # the allocation died / node crashed

    env.process(submit_then_kill(env))
    env.run(until=300)
    controller = controller_holder["ctl"]
    node = server.api.get("Node", "knode")
    assert not node.condition.ready
    assert pod.phase is PodPhase.FAILED
    assert "not ready" in pod.message
    assert controller.stats["pods_evicted"] == 1


def test_healthy_node_not_evicted(env, registry):
    server = K3sServer(env)
    cri, _ = make_cri(registry)
    kubelet = Kubelet(env, server.api, "knode", cri)

    def bring_up(env):
        yield server.ready
        kubelet.start()
        NodeLifecycleController(env, server.api)

    env.process(bring_up(env))
    pod = make_pod("fine", duration=None)

    def submit(env):
        yield env.timeout(15)
        server.api.create("Pod", pod)

    env.process(submit(env))
    env.run(until=200)
    # heartbeats keep flowing: pod still running, node ready
    assert pod.phase is PodPhase.RUNNING
    assert server.api.get("Node", "knode").condition.ready
