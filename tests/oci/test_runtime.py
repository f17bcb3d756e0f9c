"""Tests for the OCI runtime lifecycle, hooks, and namespace setup."""

import pytest

from repro.fs import FileTree, PROFILES
from repro.fs.drivers import mount_overlay
from repro.kernel import Kernel, KernelConfig, NamespaceKind
from repro.kernel.errors import EINVAL, EPERM
from repro.oci import (
    Bundle,
    CrunRuntime,
    ContainerState,
    HookPoint,
    HookRegistry,
    NamespaceRequest,
    RuncRuntime,
    RuntimeSpec,
)
from repro.oci.hooks import Hook, HookError


@pytest.fixture
def kernel():
    return Kernel(KernelConfig.modern_hpc())


def make_bundle(namespaces=None, **spec_kwargs) -> Bundle:
    tree = FileTree()
    tree.create_file("/bin/app", size=1000, mode=0o755)
    tree.create_file("/etc/passwd", data=b"root:x:0:0::/:/bin/sh\n")
    rootfs = mount_overlay([tree], PROFILES["nvme"], writable=True)
    spec = RuntimeSpec(
        args=("/bin/app",),
        namespaces=namespaces or NamespaceRequest.hpc_minimal(),
        **spec_kwargs,
    )
    return Bundle(rootfs=rootfs, spec=spec, origin="test")


def test_full_lifecycle(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    ctr = rt.create(make_bundle(), owner=user)
    assert ctr.state is ContainerState.CREATED
    rt.start(ctr)
    assert ctr.state is ContainerState.RUNNING
    rt.finish(ctr, exit_code=0)
    assert ctr.state is ContainerState.STOPPED
    rt.delete(ctr)
    assert ctr.state is ContainerState.DELETED
    assert ctr.id not in rt.containers


def test_rootless_container_namespaces(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    ctr = rt.create(make_bundle(), owner=user)
    created = ctr.namespaces_created()
    assert NamespaceKind.USER in created
    assert NamespaceKind.MNT in created
    assert NamespaceKind.NET not in created  # HPC minimal isolation
    assert ctr.proc.root == "/run/oci/rootfs"  # pivoted


def test_full_isolation_namespaces(kernel):
    rt = RuncRuntime(kernel)
    user = kernel.spawn(uid=1000)
    ctr = rt.create(make_bundle(namespaces=NamespaceRequest.full()), owner=user)
    created = ctr.namespaces_created()
    assert {NamespaceKind.NET, NamespaceKind.IPC, NamespaceKind.PID} <= created


def test_rootless_user_appears_as_container_root(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    ctr = rt.create(make_bundle(), owner=user)
    # Host identity preserved; inside the userns the process is uid 0.
    assert ctr.proc.host_uid() == 1000
    assert ctr.proc.container_uid() == 0


def test_rootless_denied_on_legacy_site():
    kernel = Kernel(KernelConfig.legacy_hpc())
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    with pytest.raises(EPERM, match="user namespaces"):
        rt.create(make_bundle(), owner=user)


def test_invalid_bundle_rejected(kernel):
    rt = CrunRuntime(kernel)
    bundle = make_bundle()
    bundle.spec = RuntimeSpec(args=(), namespaces=NamespaceRequest.hpc_minimal())
    with pytest.raises(EINVAL, match="invalid bundle"):
        rt.create(bundle, owner=kernel.spawn(uid=1000))


def test_duplicate_container_id(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    rt.create(make_bundle(), owner=user, container_id="dup")
    with pytest.raises(EINVAL, match="already in use"):
        rt.create(make_bundle(), owner=user, container_id="dup")


def test_state_machine_guards(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    ctr = rt.create(make_bundle(), owner=user)
    with pytest.raises(EINVAL):
        rt.kill(ctr)  # not running yet
    rt.start(ctr)
    with pytest.raises(EINVAL):
        rt.start(ctr)  # already running
    with pytest.raises(EPERM):
        rt.delete(ctr)  # running
    rt.kill(ctr)
    assert ctr.exit_code == 137


def test_hooks_run_in_order_at_each_point(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    trace = []
    hooks = HookRegistry()
    hooks.add(HookPoint.CREATE_RUNTIME, lambda ctx: trace.append("cr"), name="cr")
    hooks.add(HookPoint.CREATE_CONTAINER, lambda ctx: trace.append("cc-late"), name="late", priority=90)
    hooks.add(HookPoint.CREATE_CONTAINER, lambda ctx: trace.append("cc-early"), name="early", priority=10)
    hooks.add(HookPoint.START_CONTAINER, lambda ctx: trace.append("sc"), name="sc")
    hooks.add(HookPoint.POSTSTART, lambda ctx: trace.append("ps"), name="ps")
    hooks.add(HookPoint.POSTSTOP, lambda ctx: trace.append("stop"), name="stop")
    bundle = make_bundle()
    bundle.spec.hooks = hooks
    ctr = rt.create(bundle, owner=user)
    rt.start(ctr)
    rt.finish(ctr)
    rt.delete(ctr)
    assert trace == ["cr", "cc-early", "cc-late", "sc", "ps", "stop"]


def test_hook_failure_aborts(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    hooks = HookRegistry()

    def bad(ctx):
        raise ValueError("driver mismatch")

    hooks.add(HookPoint.CREATE_CONTAINER, bad, name="abi-check")
    bundle = make_bundle()
    bundle.spec.hooks = hooks
    with pytest.raises(HookError, match="abi-check"):
        rt.create(bundle, owner=user)


def test_hook_context_carries_container_and_kernel(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    seen = {}
    hooks = HookRegistry()
    hooks.add(HookPoint.POSTSTART, lambda ctx: seen.update(ctx), name="grab")
    bundle = make_bundle()
    bundle.spec.hooks = hooks
    ctr = rt.create(bundle, owner=user)
    rt.start(ctr)
    assert seen["container"] is ctr
    assert seen["kernel"] is kernel
    assert seen["proc"] is ctr.proc


def test_bind_mounts_resolve_inside_container(kernel):
    from repro.oci.bundle import BindMountSpec

    host = FileTree()
    host.create_file("/usr/lib64/libcuda.so.1", size=30_000_000)
    bundle = make_bundle()
    bundle.spec.bind_mounts.append(
        BindMountSpec(source_tree=host, source_path="/usr/lib64", target_path="/usr/lib/host")
    )
    rt = CrunRuntime(kernel)
    ctr = rt.create(bundle, owner=kernel.spawn(uid=1000))
    assert ctr.exists("/usr/lib/host/libcuda.so.1")
    assert ctr.exists("/bin/app")


def test_bind_mount_missing_source_fails_validation(kernel):
    from repro.oci.bundle import BindMountSpec

    bundle = make_bundle()
    bundle.spec.bind_mounts.append(
        BindMountSpec(source_tree=FileTree(), source_path="/nope", target_path="/x")
    )
    rt = CrunRuntime(kernel)
    with pytest.raises(EINVAL, match="bind source missing"):
        rt.create(bundle, owner=kernel.spawn(uid=1000))


def test_device_exposure_requires_grant(kernel):
    kernel.host_devices.add("nvidia0")
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    bundle = make_bundle(devices=("nvidia0",))
    with pytest.raises(EPERM):
        rt.create(bundle, owner=user)
    kernel.grant_device(user, "nvidia0")
    ctr = rt.create(make_bundle(devices=("nvidia0",)), owner=user)
    assert "nvidia0" in ctr.proc.exposed_devices


def test_cgroup_placement_via_delegation(kernel):
    kernel.cgroups.create("/user.slice/user-1000")
    kernel.cgroups.delegate("/user.slice/user-1000", uid=1000)
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    bundle = make_bundle(cgroup_path="/user.slice/user-1000/ctr1")
    ctr = rt.create(bundle, owner=user)
    assert kernel.cgroups.cgroup_of(ctr.proc.pid).path == "/user.slice/user-1000/ctr1"


def test_crun_faster_than_runc(kernel):
    assert CrunRuntime(kernel).startup_cost() < RuncRuntime(kernel).startup_cost()


def test_hook_merge_only_when_a_side_has_hooks():
    empty, other = HookRegistry(), HookRegistry()
    assert empty.merged_with(other) is empty  # nothing to merge
    assert len(empty) == 0 and empty.hooks_at(HookPoint.PRESTART) == []
    trace = []
    site = HookRegistry()
    site.add(HookPoint.PRESTART, lambda ctx: trace.append("site"), name="site", priority=60)
    spec = HookRegistry()
    spec.add(HookPoint.PRESTART, lambda ctx: trace.append("spec"), name="spec", priority=40)
    for merged in (empty.merged_with(site), spec.merged_with(site)):
        assert merged is not site and merged is not spec
    merged = spec.merged_with(site)
    merged.run(HookPoint.PRESTART, {})
    assert trace == ["spec", "site"]
    assert len(site) == len(spec) == 1  # the inputs are untouched


def test_delete_reaps_the_container_process(kernel):
    rt = CrunRuntime(kernel)
    user = kernel.spawn(uid=1000)
    created = rt.create(make_bundle(), owner=user)
    rt.delete(created)  # never started: killed, then reaped
    assert created.proc.pid not in kernel.processes
    ctr = rt.create(make_bundle(), owner=user)
    rt.start(ctr)
    rt.finish(ctr)
    assert ctr.proc.pid in kernel.processes  # a zombie until deleted
    rt.delete(ctr)
    assert ctr.proc.pid not in kernel.processes and user.children == []
