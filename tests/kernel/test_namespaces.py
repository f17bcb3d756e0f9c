"""Tests for user namespaces, uid maps, and capability scoping."""

import pytest

from repro.kernel import (
    Capability,
    EINVAL,
    EPERM,
    IdMapping,
    Kernel,
    KernelConfig,
    NamespaceKind,
    UserNamespace,
)


@pytest.fixture
def kernel():
    return Kernel(KernelConfig.modern_hpc())


@pytest.fixture
def user_proc(kernel):
    return kernel.spawn(uid=1000)


def test_initial_userns_identity_maps(kernel):
    assert kernel.initial_userns.uid_to_host(1234) == 1234
    assert kernel.initial_userns.is_initial


def test_spawn_inherits_namespaces_and_creds(kernel, user_proc):
    child = kernel.spawn(parent=user_proc)
    assert child.creds.uid == 1000
    assert child.userns is user_proc.userns
    assert child.mount_table is user_proc.mount_table


def test_spawn_uid_switch_requires_setuid(kernel, user_proc):
    with pytest.raises(EPERM):
        kernel.spawn(parent=user_proc, uid=0)
    # root can switch uid freely
    other = kernel.spawn(parent=kernel.init, uid=4321)
    assert other.creds.uid == 4321


def test_unshare_user_grants_full_caps_inside(kernel, user_proc):
    assert not user_proc.creds.has(Capability.SYS_ADMIN)
    kernel.unshare(user_proc, [NamespaceKind.USER])
    assert user_proc.creds.has(Capability.SYS_ADMIN)
    assert not user_proc.in_initial_userns
    assert user_proc.userns.creator_uid == 1000


def test_unshare_user_denied_when_sysctl_off():
    kernel = Kernel(KernelConfig.legacy_hpc())
    proc = kernel.spawn(uid=1000)
    with pytest.raises(EPERM, match="unprivileged user namespaces"):
        kernel.unshare(proc, [NamespaceKind.USER])
    # root can still unshare
    kernel.unshare(kernel.init, [NamespaceKind.USER])


def test_userns_count_limit():
    kernel = Kernel(KernelConfig(max_user_namespaces=2))
    p1 = kernel.spawn(uid=1000)
    kernel.unshare(p1, [NamespaceKind.USER])
    p2 = kernel.spawn(uid=1001)
    with pytest.raises(EPERM, match="max_user_namespaces"):
        kernel.unshare(p2, [NamespaceKind.USER])


def test_capability_does_not_extend_to_parent_ns(kernel, user_proc):
    kernel.unshare(user_proc, [NamespaceKind.USER])
    # Full caps inside own namespace, none towards the initial one.
    assert kernel.has_capability(user_proc, Capability.SYS_ADMIN)
    assert not kernel.has_capability(user_proc, Capability.SYS_ADMIN, kernel.initial_userns)


def test_root_capability_reaches_child_namespaces(kernel, user_proc):
    kernel.unshare(user_proc, [NamespaceKind.USER])
    assert kernel.has_capability(kernel.init, Capability.SYS_ADMIN, user_proc.userns)


def test_unprivileged_uid_map_single_own_uid(kernel, user_proc):
    kernel.unshare(user_proc, [NamespaceKind.USER])
    ns = user_proc.userns
    kernel.write_uid_map(ns, [IdMapping(inside=0, outside=1000)], writer=user_proc)
    assert ns.uid_to_parent(0) == 1000
    assert ns.uid_to_host(0) == 1000
    assert not ns.maps_multiple_uids()


def test_unprivileged_uid_map_cannot_map_other_uid(kernel, user_proc):
    kernel.unshare(user_proc, [NamespaceKind.USER])
    with pytest.raises(EPERM, match="own uid"):
        kernel.write_uid_map(user_proc.userns, [IdMapping(inside=0, outside=0)], writer=user_proc)


def test_unprivileged_uid_map_cannot_map_range(kernel, user_proc):
    kernel.unshare(user_proc, [NamespaceKind.USER])
    with pytest.raises(EPERM, match="exactly one id"):
        kernel.write_uid_map(
            user_proc.userns,
            [IdMapping(inside=0, outside=100000, count=65536)],
            writer=user_proc,
        )


def test_privileged_uid_map_range_via_newuidmap(kernel, user_proc):
    """The newuidmap setuid helper (CAP_SETUID in the parent ns) installs
    subuid ranges — the fakeroot feature of Apptainer/SingularityCE."""
    kernel.unshare(user_proc, [NamespaceKind.USER])
    helper = kernel.spawn(parent=kernel.init)  # root helper
    kernel.write_uid_map(
        user_proc.userns,
        [IdMapping(inside=0, outside=1000), IdMapping(inside=1, outside=100000, count=65536)],
        writer=helper,
    )
    assert user_proc.userns.maps_multiple_uids()
    assert user_proc.userns.uid_to_parent(5) == 100004


def test_uid_map_double_write_rejected(kernel, user_proc):
    kernel.unshare(user_proc, [NamespaceKind.USER])
    kernel.write_uid_map(user_proc.userns, [IdMapping(0, 1000)], writer=user_proc)
    with pytest.raises(EINVAL):
        kernel.write_uid_map(user_proc.userns, [IdMapping(0, 1000)], writer=user_proc)


def test_nested_userns_uid_to_host(kernel, user_proc):
    kernel.unshare(user_proc, [NamespaceKind.USER])
    kernel.write_uid_map(user_proc.userns, [IdMapping(0, 1000)], writer=user_proc)
    inner = kernel.spawn(parent=user_proc)
    kernel.unshare(inner, [NamespaceKind.USER])
    kernel.write_uid_map(inner.userns, [IdMapping(0, 0)], writer=inner)
    assert inner.userns.uid_to_host(0) == 1000


def test_userns_nesting_depth_limit(kernel):
    ns = kernel.initial_userns
    for _ in range(32):
        ns = UserNamespace(parent=ns, creator_uid=0)
    with pytest.raises(EPERM, match="nesting"):
        UserNamespace(parent=ns, creator_uid=0)


def test_unshare_mnt_requires_sys_admin(kernel, user_proc):
    with pytest.raises(EPERM, match="CAP_SYS_ADMIN"):
        kernel.unshare(user_proc, [NamespaceKind.MNT])


def test_unshare_user_and_mnt_together(kernel, user_proc):
    """The classic rootless sequence: USER first supplies the capability
    the MNT unshare needs."""
    original_table = user_proc.mount_table
    kernel.unshare(user_proc, [NamespaceKind.USER, NamespaceKind.MNT])
    assert user_proc.mount_table is not original_table
    assert user_proc.ns(NamespaceKind.MNT).owner is user_proc.userns


def test_mount_table_cloned_on_mnt_unshare(kernel):
    from repro.fs import FileTree, PROFILES
    from repro.fs.drivers import mount_bind

    host_view = mount_bind(FileTree(), PROFILES["nvme"])
    kernel.mount(kernel.init, host_view, "/")
    proc = kernel.spawn(uid=1000)
    kernel.unshare(proc, [NamespaceKind.USER, NamespaceKind.MNT])
    tree = FileTree()
    tree.create_file("/inner", size=1)
    view = mount_bind(tree, PROFILES["nvme"])
    kernel.mount(proc, view, "/mnt/ctr")
    assert proc.mount_table.is_mount_point("/mnt/ctr")
    assert not kernel.init.mount_table.is_mount_point("/mnt/ctr")


def test_setns_requires_capability(kernel, user_proc):
    other = kernel.spawn(uid=2000)
    kernel.unshare(other, [NamespaceKind.USER, NamespaceKind.NET])
    net_ns = other.ns(NamespaceKind.NET)
    with pytest.raises(EPERM):
        kernel.setns(user_proc, net_ns)
    # root may join
    helper = kernel.spawn(parent=kernel.init)
    kernel.setns(helper, net_ns)
    assert helper.ns(NamespaceKind.NET) is net_ns


def test_id_mapping_validation():
    with pytest.raises(EINVAL):
        IdMapping(inside=0, outside=0, count=0)
    m = IdMapping(inside=0, outside=100000, count=10)
    assert m.to_parent(3) == 100003
    assert m.to_parent(10) is None
    assert m.from_parent(100009) == 9
    assert m.from_parent(99999) is None


def test_reap_releases_pid_parent_slot_and_cgroup(kernel, user_proc):
    kernel.cgroups.create("/jobs/j1")
    child = kernel.spawn(parent=user_proc, argv=("app",))
    kernel.cgroups.attach("/jobs/j1", child.pid)
    with pytest.raises(EINVAL, match="still running"):
        kernel.reap(child)
    kernel.exit(child, 0)
    kernel.reap(child)
    assert child.pid not in kernel.processes
    assert child not in user_proc.children
    assert kernel.cgroups.cgroup_of(child.pid) is None
    assert kernel.cgroups.cgroup_at("/jobs/j1").procs == set()
    kernel.reap(child)  # reaping twice is a no-op


def test_unshare_without_sys_admin_names_a_requested_kind(kernel, user_proc):
    with pytest.raises(EPERM, match=r"unshare\(mnt\) requires CAP_SYS_ADMIN"):
        kernel.unshare(user_proc, {NamespaceKind.MNT})
    # with a user namespace first, one check covers every other kind
    kernel.unshare(user_proc, {NamespaceKind.USER, NamespaceKind.MNT, NamespaceKind.PID})
    assert user_proc.namespaces[NamespaceKind.PID].owner is user_proc.userns
    assert user_proc.namespaces[NamespaceKind.MNT].owner is user_proc.userns
