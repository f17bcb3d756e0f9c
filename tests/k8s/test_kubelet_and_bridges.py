"""Tests for kubelets (incl. rootless mode), K3s, virtual kubelet (KNoC),
and the bridge operator."""

import pytest

from repro.cluster import HostNode
from repro.engines import PodmanEngine
from repro.k8s import (
    APIServer,
    BridgeOperator,
    ContainerSpec,
    CRIRuntime,
    FullK8sServer,
    K3sServer,
    Kubelet,
    KubeletError,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
    ResourceRequests,
    VirtualKubelet,
    WLMJobRequest,
)
from repro.k8s.k3s import FullK8sServer
from repro.kernel import KernelConfig
from repro.sim import Environment
from repro.wlm import JobState, SlurmController

from tests.k8s.conftest import make_cri
from tests.oracles.kubelet import StoreScanKubelet


def make_pod(name, image="registry.site.local/pipelines/step:v1", duration=10.0, cpu=1.0):
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(
            containers=[ContainerSpec(name="main", image=image,
                                      resources=ResourceRequests(cpu=cpu))],
            duration=duration,
        ),
    )


def test_kubelet_registers_and_runs_pod(env, registry):
    server = K3sServer(env)
    cri, host = make_cri(registry)
    kubelet = Kubelet(env, server.api, "knode", cri)

    def bring_up(env):
        yield server.ready
        kubelet.start()

    env.process(bring_up(env))
    pod = make_pod("job-1", duration=5)

    def submit(env):
        yield env.timeout(15)
        server.api.create("Pod", pod)

    env.process(submit(env))
    env.run(until=60)
    assert pod.phase is PodPhase.SUCCEEDED
    assert pod.node_name == "knode"
    assert kubelet.stats["pods_started"] == 1
    assert pod.end_time - pod.start_time == pytest.approx(5, abs=0.1)


@pytest.mark.parametrize("oracle", [False, True])
def test_pod_watch_routing_keyed_vs_store_scan_oracle(env, registry, oracle):
    """The production kubelet registers its Pod watch keyed by node; the
    store-scan oracle joins the unkeyed fan-out.  Both run the pod, so the
    oracle equivalence tests compare keyed routing against the fan-out."""
    server = K3sServer(env)
    cri, _ = make_cri(registry)
    kubelet = (StoreScanKubelet if oracle else Kubelet)(env, server.api, "knode", cri)

    def bring_up(env):
        yield server.ready
        kubelet.start()

    env.process(bring_up(env))
    pod = make_pod("job-1", duration=5)

    def submit(env):
        yield env.timeout(15)
        watchers = server.api._watchers["Pod"]
        mine = [cb for _seq, cb in watchers.unkeyed if cb == kubelet._on_pod_watch]
        assert bool(mine) is oracle
        assert ("knode" in watchers.keyed) is not oracle
        server.api.create("Pod", pod)

    env.process(submit(env))
    env.run(until=60)
    assert pod.phase is PodPhase.SUCCEEDED
    assert pod.node_name == "knode"


def test_k3s_much_faster_cold_start_than_full_k8s():
    assert K3sServer.startup_cost < FullK8sServer.startup_cost / 4


def test_kubelet_stop_marks_node_not_ready(env, registry):
    server = K3sServer(env)
    cri, _ = make_cri(registry)
    kubelet = Kubelet(env, server.api, "knode", cri)

    def lifecycle(env):
        yield server.ready
        kubelet.start()
        yield env.timeout(30)
        kubelet.stop()

    env.process(lifecycle(env))
    env.run(until=60)
    node = server.api.get("Node", "knode")
    assert node is not None and not node.condition.ready


def test_rootless_kubelet_requires_delegated_cgroup(env, registry):
    cri, host = make_cri(registry)
    api = APIServer()
    user = host.kernel.spawn(uid=1000)
    kubelet = Kubelet(env, api, "n", cri, user_proc=user, cgroup_path=None)
    with pytest.raises(KubeletError, match="delegated"):
        kubelet.start()
    host.kernel.cgroups.create("/slurm/uid_1000/job_1")
    kubelet2 = Kubelet(env, api, "n", cri, user_proc=user, cgroup_path="/slurm/uid_1000/job_1")
    with pytest.raises(KubeletError, match="delegated"):
        kubelet2.start()
    host.kernel.cgroups.delegate("/slurm/uid_1000/job_1", uid=1000)
    kubelet2.start()  # now fine


def test_rootless_kubelet_requires_cgroup_v2(env, registry):
    host = HostNode(name="legacy", kernel_config=KernelConfig(cgroup_version=1))
    engine = PodmanEngine(host)
    cri = CRIRuntime(engine, registry)
    user = host.kernel.spawn(uid=1000)
    kubelet = Kubelet(env, APIServer(), "n", cri, user_proc=user, cgroup_path="/x")
    with pytest.raises(KubeletError, match="cgroup v2"):
        kubelet.start()


def test_rootless_kubelet_pods_run_as_job_user(env, registry):
    server = K3sServer(env)
    cri, host = make_cri(registry)
    host.kernel.cgroups.create("/slurm/uid_1000/job_7")
    host.kernel.cgroups.delegate("/slurm/uid_1000/job_7", uid=1000)
    user = host.kernel.spawn(uid=1000)
    kubelet = Kubelet(env, server.api, "alloc-node", cri,
                      user_proc=user, cgroup_path="/slurm/uid_1000/job_7")

    def bring_up(env):
        yield server.ready
        kubelet.start()

    env.process(bring_up(env))
    pod = make_pod("rootless-pod", duration=3)

    def submit(env):
        yield env.timeout(15)
        server.api.create("Pod", pod)

    env.process(submit(env))
    env.run(until=60)
    assert pod.phase is PodPhase.SUCCEEDED
    result = pod.container_results[0]
    assert result.container.proc.host_uid() == 1000
    cg = host.kernel.cgroups.cgroup_of(result.container.proc.pid)
    assert cg is not None and cg.path.startswith("/slurm/uid_1000/job_7/pod-")


def test_virtual_kubelet_translates_pods_to_wlm_jobs(env, registry):
    """KNoC (§6.4): pods run as WLM jobs; accounting lands in Slurm."""
    hosts = [HostNode(name=f"c{i}") for i in range(2)]
    wlm = SlurmController(env, hosts)
    engines = {h.name: PodmanEngine(h) for h in hosts}
    server = K3sServer(env)
    vk = VirtualKubelet(env, server.api, wlm, engines, registry)

    def bring_up(env):
        yield server.ready
        vk.start()

    env.process(bring_up(env))
    pods = [make_pod(f"wf-{i}", duration=20, cpu=2) for i in range(3)]

    def submit(env):
        yield env.timeout(12)
        for p in pods:
            server.api.create("Pod", p)

    env.process(submit(env))
    env.run(until=400)
    assert all(p.phase is PodPhase.SUCCEEDED for p in pods)
    # every pod is attributable in WLM accounting
    records = wlm.accounting.by_comment_prefix("kubernetes-pod:")
    assert len(records) == 3
    assert all(r.user_uid == 1000 for r in records)


def test_bridge_operator_requires_explicit_request(env, registry):
    """§6.4 bridge drawback: a plain Pod is ignored; WLMJobRequest works."""
    hosts = [HostNode(name="c0")]
    wlm = SlurmController(env, hosts)
    api = APIServer()
    operator = BridgeOperator(env, api, wlm)

    api.create("Pod", make_pod("plain-pod"))  # NOT picked up
    request = WLMJobRequest(
        metadata=ObjectMeta(name="explicit"), nodes=1, user_uid=1000, duration=30
    )
    api.create("WLMJobRequest", request)
    env.run(until=200)
    assert operator.stats["submitted"] == 1
    assert request.wlm_job_id is not None
    assert request.status == "Completed"
    assert len(wlm.accounting.by_comment_prefix("bridge-operator:")) == 1
    # the plain pod went nowhere
    assert api.get("Pod", "plain-pod").phase is PodPhase.PENDING
