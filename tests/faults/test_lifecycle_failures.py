"""Cross-cutting lifecycle failures (no injector needed): half-built
containers, full blob stores, failing hooks mid-lifecycle, WLM timeouts
during scenarios.  Injected-fault recovery lives in test_recovery.py."""

import pytest

from repro.cluster import HostNode
from repro.engines import SarusEngine
from repro.fs import FileTree, PROFILES
from repro.fs.drivers import mount_overlay
from repro.kernel import Kernel, KernelConfig
from repro.oci import (
    Builder,
    Bundle,
    CrunRuntime,
    HookPoint,
    HookRegistry,
    ImageConfig,
    Layer,
    NamespaceRequest,
    OCIImage,
    RuntimeSpec,
)
from repro.oci.hooks import HookError
from repro.registry import OCIDistributionRegistry
from repro.registry.storage import FSBlobStore, StorageError


def make_bundle(hooks=None):
    tree = FileTree()
    tree.create_file("/bin/app", size=100)
    rootfs = mount_overlay([tree], PROFILES["nvme"], writable=True)
    spec = RuntimeSpec(args=("/bin/app",), namespaces=NamespaceRequest.hpc_minimal())
    if hooks is not None:
        spec.hooks = hooks
    return Bundle(rootfs=rootfs, spec=spec)


def test_failed_create_leaves_no_container_record():
    kernel = Kernel(KernelConfig.modern_hpc())
    rt = CrunRuntime(kernel)
    hooks = HookRegistry()
    hooks.add(HookPoint.CREATE_CONTAINER, lambda ctx: (_ for _ in ()).throw(ValueError("gpu driver missing")),
              name="bad-hook")
    owner = kernel.spawn(uid=1000)
    with pytest.raises(HookError):
        rt.create(make_bundle(hooks), owner=owner, container_id="doomed")
    assert "doomed" not in rt.containers
    # nor the process it had spawned
    assert owner.children == []
    assert set(kernel.processes) == {kernel.init.pid, owner.pid}
    # the id is reusable after the failure
    ctr = rt.create(make_bundle(), owner=kernel.spawn(uid=1000), container_id="doomed")
    assert ctr.id == "doomed"


def test_blob_store_capacity_failure_is_clean():
    store = FSBlobStore(capacity_bytes=1_000)
    reg = OCIDistributionRegistry(name="tiny", store=store)
    t = FileTree()
    t.create_file("/big", size=10_000)
    big = OCIImage(ImageConfig(), [Layer(t)])
    with pytest.raises(StorageError, match="full"):
        reg.push_image("r/big", "v1", big)
    # the registry did not record a tag for the failed push
    from repro.registry import RegistryError

    with pytest.raises(RegistryError):
        reg.resolve("r/big", "v1")
    # small pushes still work afterwards
    t2 = FileTree()
    t2.create_file("/small", size=10)
    reg.push_image("r/small", "v1", OCIImage(ImageConfig(), [Layer(t2)]))


def test_poststart_hook_failure_after_running():
    """Per OCI spec poststart failures are logged, not fatal — our model
    surfaces them as HookError at start(); the container must be
    killable afterwards (no stuck state machine)."""
    kernel = Kernel(KernelConfig.modern_hpc())
    rt = CrunRuntime(kernel)
    hooks = HookRegistry()
    hooks.add(HookPoint.POSTSTART, lambda ctx: (_ for _ in ()).throw(RuntimeError("monitor died")),
              name="flaky-poststart")
    ctr = rt.create(make_bundle(hooks), owner=kernel.spawn(uid=1000))
    with pytest.raises(HookError):
        rt.start(ctr)
    # the container did transition to RUNNING before poststart ran
    from repro.oci.runtime import ContainerState

    assert ctr.state is ContainerState.RUNNING
    rt.kill(ctr)
    assert ctr.state is ContainerState.STOPPED


def test_engine_survives_registry_failure_midway():
    node = HostNode(kernel_config=KernelConfig.modern_hpc())
    engine = SarusEngine(node)
    registry = OCIDistributionRegistry(name="site")
    with pytest.raises(Exception):
        engine.pull("ghost/app", "v1", registry)
    # engine state is intact: a valid pull+run still works
    image = Builder().build_dockerfile("FROM alpine\nRUN write /opt/x 1000")
    registry.push_image("ok/app", "v1", image)
    pulled = engine.pull("ok/app", "v1", registry)
    result = engine.run(pulled, node.kernel.spawn(uid=1000))
    assert result.container.state.value == "running"


def test_scenario_job_timeout_fails_safe():
    """A kubelet-hosting job that hits its time limit: the WLM reclaims
    the nodes; metrics still computable."""
    from repro.scenarios import KubeletInAllocationScenario
    from repro.sim import Environment
    from repro.wlm import JobState

    env = Environment()
    scenario = KubeletInAllocationScenario(env, n_nodes=2, allocation_time_limit=60)
    ready = scenario.provision()
    env.run(until=ready)
    env.run(until=env.now + 500)
    assert scenario.job.state is JobState.TIMEOUT
    from repro.wlm import NodeState

    assert all(n.state is NodeState.IDLE for n in scenario.wlm.nodes)
    metrics = scenario.metrics()  # must not raise
    assert metrics.pods_submitted == 0


def test_find_leaks_reports_state_a_finished_pod_kept():
    """The retained-state class: a stopped container never removed is
    still recorded, its process and monitor exited-but-unreaped (the
    monitor here is still running, so only the container process
    shows), and a pod cgroup emptied but not removed."""
    import types

    from repro.engines import PodmanEngine
    from repro.faults import find_leaks
    from repro.faults.leaks import retained_state_leaks

    node = HostNode(name="nid0001", kernel_config=KernelConfig.modern_hpc())
    registry = OCIDistributionRegistry(name="site")
    registry.push_image("app", "v1", Builder().build_dockerfile("FROM alpine:3.18"))
    kernel = node.kernel
    kernel.cgroups.create("/job")
    kernel.cgroups.delegate("/job", uid=1000)
    engine = PodmanEngine(node)
    user = kernel.spawn(uid=1000)
    result = engine.run(engine.pull("app", "v1", registry), user, cgroup_path="/job/pod-1")
    kubelet = types.SimpleNamespace(
        node_name=node.name, cgroup_path="/job", cri=types.SimpleNamespace(engine=engine),
        _active_pods={},
    )
    scenario = types.SimpleNamespace(engines={node.name: engine}, kubelets=[kubelet])
    # a running pod holds what it holds: nothing of it is retained state
    assert retained_state_leaks([engine], [kubelet]) == []

    container = result.container
    engine.stop(container)
    kernel.cgroups.detach(container.proc.pid)
    assert find_leaks(scenario) == [
        f"terminal container {container.id} on podman still recorded",
        f"exited pid {container.proc.pid} ({container.proc.argv[0]}) on nid0001 not reaped",
        "empty pod cgroup /job/pod-1 not removed",
    ]
    engine.remove(container)
    kernel.cgroups.remove("/job/pod-1", by_uid=1000)
    assert find_leaks(scenario) == []
