"""Core engine behaviour: lifecycle, rootless mechanisms, caches,
monitors, namespacing — the substance behind Tables 1 and 2."""

import pytest

from repro.cluster import HostNode
from repro.engines import (
    ALL_ENGINES,
    ApptainerEngine,
    CharliecloudEngine,
    DockerEngine,
    EngineError,
    EnrootEngine,
    PodmanEngine,
    PodmanHPCEngine,
    SarusEngine,
    ShifterEngine,
    SingularityCEEngine,
)
from repro.kernel import KernelConfig, NamespaceKind
from repro.oci.runtime import ContainerState


def make_engine(cls, node, **kwargs):
    engine = cls(node, **kwargs)
    if isinstance(engine, DockerEngine):
        engine.start_daemon()
    return engine


def pull_and_prepare(engine, registry, user, repo="hpc/solver"):
    pulled = engine.pull(repo, "v1", registry)
    if isinstance(engine, EnrootEngine):
        from repro.oci.image import OCIImage

        assert isinstance(pulled.image, OCIImage)
        engine.import_image(repo, pulled.image)
    return pulled


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_every_engine_runs_a_container(engine_cls, node, registry, user):
    engine = make_engine(engine_cls, node)
    pulled = pull_and_prepare(engine, registry, user)
    result = engine.run(pulled, user)
    assert result.container.state is ContainerState.RUNNING
    assert result.startup_seconds > 0
    assert result.timings["pull"] >= 0


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_namespacing_matches_capability(engine_cls, node, registry, user):
    engine = make_engine(engine_cls, node)
    pulled = pull_and_prepare(engine, registry, user)
    result = engine.run(pulled, user)
    created = result.container.namespaces_created()
    assert NamespaceKind.USER in created
    assert NamespaceKind.MNT in created
    if engine.capabilities.namespacing == "full":
        assert NamespaceKind.NET in created
    else:
        # HPC engines skip NET/IPC (§3.2)
        assert NamespaceKind.NET not in created
        assert NamespaceKind.IPC not in created


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_rootfs_driver_matches_declared_rootless_fs(engine_cls, node, registry, user):
    """Table 1's Rootless-FS column, checked against the actual mount."""
    engine = make_engine(engine_cls, node)
    pulled = pull_and_prepare(engine, registry, user)
    result = engine.run(pulled, user)
    driver = result.container.rootfs.driver.name
    declared = engine.capabilities.rootless_fs
    mapping = {
        "fuse-overlayfs": {"fuse-overlayfs"},
        "suid": {"bind"},           # staged kernel-squash mount, bind-wrapped
        "SquashFUSE": {"squashfuse", "fuse-overlayfs"},
        "Dir": {"bind"},
        "fakeroot": {"bind", "squashfuse"},
    }
    allowed = set()
    for mech in declared:
        allowed |= mapping[mech]
    if not engine.capabilities.rootless_fs:
        allowed = {"overlay"}
    if isinstance(engine, DockerEngine):
        allowed |= {"overlay"}  # root daemon uses the kernel driver
    assert driver in allowed, f"{engine.info.name}: {driver} not in {allowed}"


def test_docker_requires_daemon(node, registry, user):
    docker = DockerEngine(node)
    pulled = docker.pull("hpc/solver", "v1", registry)
    with pytest.raises(EngineError, match="dockerd"):
        docker.run(pulled, user)
    docker.start_daemon()
    result = docker.run(pulled, user)
    assert any("daemon" in w for w in result.warnings)


def test_docker_containers_children_of_root_daemon(node, registry, user):
    docker = make_engine(DockerEngine, node)
    pulled = docker.pull("hpc/solver", "v1", registry)
    result = docker.run(pulled, user)
    # accounting problem: the container's parent chain leads to dockerd, not the user
    proc = result.container.proc
    assert proc.parent is docker.daemon.proc
    assert docker.daemon.runs_as_root


def test_podman_conmon_per_container_as_user(node, registry, user):
    podman = PodmanEngine(node)
    pulled = podman.pull("hpc/solver", "v1", registry)
    podman.run(pulled, user)
    podman.run(pulled, user)
    assert len(podman.monitors) == 2
    assert all(m.runs_as_user for m in podman.monitors)
    assert all(m.proc.creds.uid == 1000 for m in podman.monitors)


def test_layer_cache_reduces_second_pull(node, registry, user):
    podman = PodmanEngine(node)
    first = podman.pull("hpc/solver", "v1", registry)
    second = podman.pull("hpc/solver", "v1", registry)
    assert second.pull_cost < first.pull_cost


def test_podman_hpc_transparent_conversion_cached_per_user(node, registry):
    engine = PodmanHPCEngine(node)
    alice = node.kernel.spawn(uid=1000)
    bob = node.kernel.spawn(uid=1001)
    pulled = engine.pull("hpc/solver", "v1", registry)
    r1 = engine.run(pulled, alice)
    assert "convert" in r1.timings
    r2 = engine.run(pulled, alice)
    assert "convert" not in r2.timings  # cached for alice
    r3 = engine.run(pulled, bob)
    assert "convert" in r3.timings  # no native sharing (Table 2)


def test_sarus_conversion_shared_between_users(node, registry):
    engine = SarusEngine(node)
    alice = node.kernel.spawn(uid=1000)
    bob = node.kernel.spawn(uid=1001)
    pulled = engine.pull("hpc/solver", "v1", registry)
    r1 = engine.run(pulled, alice)
    assert "convert" in r1.timings
    r2 = engine.run(pulled, bob)
    assert "convert" not in r2.timings  # central root-owned store (Table 2)


def test_shifter_and_sarus_refuse_hardened_sites():
    hardened = HostNode(kernel_config=KernelConfig.hardened())
    with pytest.raises(EngineError, match="setuid"):
        ShifterEngine(hardened)
    with pytest.raises(EngineError, match="setuid"):
        SarusEngine(hardened)


def test_charliecloud_works_on_hardened_site(registry):
    hardened = HostNode(kernel_config=KernelConfig.hardened())
    engine = CharliecloudEngine(hardened)
    user = hardened.kernel.spawn(uid=1000)
    pulled = engine.pull("hpc/solver", "v1", registry)
    result = engine.run(pulled, user)
    assert result.container.state is ContainerState.RUNNING
    assert "extract" in result.timings  # dir mode extracts every run


def test_charliecloud_no_transparent_cache(node, registry, user):
    engine = CharliecloudEngine(node)
    pulled = engine.pull("hpc/solver", "v1", registry)
    r1 = engine.run(pulled, user)
    r2 = engine.run(pulled, user)
    assert "extract" in r1.timings and "extract" in r2.timings


def test_charliecloud_squashfuse_mode(node, registry, user):
    engine = CharliecloudEngine(node, storage="squashfuse")
    pulled = engine.pull("hpc/solver", "v1", registry)
    result = engine.run(pulled, user)
    assert result.container.rootfs.driver.name == "squashfuse"
    with pytest.raises(EngineError):
        CharliecloudEngine(node, storage="btrfs")


def test_enroot_requires_explicit_import(node, registry, user):
    engine = EnrootEngine(node)
    pulled = engine.pull("hpc/solver", "v1", registry)
    with pytest.raises(EngineError, match="not imported"):
        engine.run(pulled, user)
    engine.import_image("solver", pulled.image)
    result = engine.run(pulled, user)
    assert result.container.state is ContainerState.RUNNING


def test_hooks_rejected_by_hookless_engines(node, registry, user):
    from repro.oci.hooks import HookPoint, HookRegistry

    engine = ShifterEngine(node)
    pulled = engine.pull("hpc/solver", "v1", registry)
    hooks = HookRegistry()
    hooks.add(HookPoint.CREATE_CONTAINER, lambda ctx: None, name="x")
    with pytest.raises(EngineError, match="no hook framework"):
        engine.run(pulled, user, extra_hooks=hooks)


def test_singularity_hooks_require_root_installation(node, registry, user):
    engine = ApptainerEngine(node)
    from repro.oci.hooks import HookPoint

    engine.site_hooks.add(HookPoint.CREATE_CONTAINER, lambda ctx: None, name="acc")
    pulled = engine.pull("hpc/solver", "v1", registry)
    with pytest.raises(EngineError, match="root"):
        engine.run(pulled, user)
    with pytest.raises(EngineError, match="requires root"):
        engine.enable_hooks(by=user)
    engine.enable_hooks(by=node.kernel.init)
    result = engine.run(pulled, user)
    assert result.container.state is ContainerState.RUNNING


def test_hpc_engines_map_single_invoking_uid(node, registry, user):
    """§3.2: files created in the container carry the job user's uid."""
    engine = SarusEngine(node)
    pulled = engine.pull("hpc/solver", "v1", registry)
    result = engine.run(pulled, user)
    proc = result.container.proc
    assert proc.host_uid() == 1000
    assert not proc.userns.maps_multiple_uids()


def test_oci_compat_gaps_reported(node, registry, user):
    """§4.1.3: vanilla service containers break on HPC engines."""
    from repro.oci import Builder

    builder = Builder()
    service = builder.build_dockerfile("FROM ubuntu\nEXPOSE 443\nRUN touch /srv/app")
    sarus = SarusEngine(node)
    gaps = sarus.oci_compat_gaps(service)
    assert any("network" in g for g in gaps)
    docker = make_engine(DockerEngine, node)
    assert docker.oci_compat_gaps(service) == []


def test_engine_metadata_complete():
    for cls in ALL_ENGINES:
        info = cls.info
        assert info.name and info.version and info.implementation_language
        assert info.contributors > 0
        caps = cls.capabilities
        assert caps.rootless
        assert caps.oci_container in ("yes", "partial")


def test_podman_stop_remove_gives_back_everything(node, registry, user):
    """stop → remove: the runtime record goes, the container and conmon
    processes are reaped (process table, parent's children, cgroup),
    and the engine forgets the monitor.  Removing twice is a no-op."""
    node.kernel.cgroups.create("/jobs/j1")
    node.kernel.cgroups.delegate("/jobs/j1", uid=1000)
    podman = PodmanEngine(node)
    pulled = podman.pull("hpc/solver", "v1", registry)
    baseline = set(node.kernel.processes)
    result = podman.run(pulled, user, cgroup_path="/jobs/j1/pod-x")
    container = result.container
    monitor = container.monitor
    assert podman.monitors == [monitor]
    assert set(node.kernel.processes) == baseline | {container.proc.pid, monitor.proc.pid}

    podman.stop(container, exit_code=3)
    assert container.exit_code == 3 and container.id in podman.runtime.containers
    podman.remove(container)
    podman.remove(container)
    assert container.id not in podman.runtime.containers
    assert podman.monitors == [] and container.monitor is None
    assert set(node.kernel.processes) == baseline
    assert user.children == []
    assert node.kernel.cgroups.cgroup_at("/jobs/j1/pod-x").procs == set()


def test_failed_start_reaps_container_and_monitor(node, registry, user):
    from repro.oci.hooks import HookError, HookPoint, HookRegistry

    podman = PodmanEngine(node)
    pulled = podman.pull("hpc/solver", "v1", registry)
    baseline = set(node.kernel.processes)
    hooks = HookRegistry()
    hooks.add(HookPoint.POSTSTART, lambda ctx: 1 / 0, name="broken")
    with pytest.raises(HookError):
        podman.run(pulled, user, extra_hooks=hooks)
    assert not podman.runtime.containers and podman.monitors == []
    assert set(node.kernel.processes) == baseline
