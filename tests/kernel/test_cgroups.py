"""Tests for cgroup v1/v2 semantics and delegation."""

import pytest

from repro.kernel import Cgroup, CgroupManager, Controller
from repro.kernel.errors import EBUSY, EINVAL, ENOENT, EPERM


def test_create_and_paths():
    mgr = CgroupManager(version=2)
    node = mgr.create("/slurm/job_1/step_0")
    assert node.path == "/slurm/job_1/step_0"
    assert mgr.exists("/slurm/job_1")


def test_invalid_version():
    with pytest.raises(EINVAL):
        CgroupManager(version=3)


def test_unprivileged_create_needs_delegation_v2():
    mgr = CgroupManager(version=2)
    mgr.create("/user.slice/user-1000")
    with pytest.raises(EPERM, match="delegated"):
        mgr.create("/user.slice/user-1000/kubelet", by_uid=1000)
    mgr.delegate("/user.slice/user-1000", uid=1000)
    node = mgr.create("/user.slice/user-1000/kubelet/pod-a", by_uid=1000)
    assert node.path == "/user.slice/user-1000/kubelet/pod-a"


def test_delegation_unavailable_on_v1():
    mgr = CgroupManager(version=1)
    mgr.create("/u")
    with pytest.raises(EPERM, match="v1"):
        mgr.delegate("/u", uid=1000)
    with pytest.raises(EPERM, match="v1"):
        mgr.create("/u/sub", by_uid=1000)


def test_only_root_delegates():
    mgr = CgroupManager(version=2)
    mgr.create("/x")
    with pytest.raises(EPERM, match="root"):
        mgr.delegate("/x", uid=1000, by_uid=1000)


def test_effective_limit_tightest_ancestor():
    mgr = CgroupManager(version=2)
    mgr.create("/a/b/c")
    mgr.set_limit("/a", Controller.MEMORY, 16e9)
    mgr.set_limit("/a/b/c", Controller.MEMORY, 4e9)
    assert mgr._resolve("/a/b/c").effective_limit(Controller.MEMORY) == 4e9
    mgr.set_limit("/a", Controller.MEMORY, 2e9)
    assert mgr._resolve("/a/b/c").effective_limit(Controller.MEMORY) == 2e9
    assert mgr._resolve("/a/b/c").effective_limit(Controller.CPU) is None


def test_devices_controller_rejected_on_v2():
    mgr = CgroupManager(version=2)
    mgr.create("/j")
    with pytest.raises(EINVAL):
        mgr.set_limit("/j", Controller.DEVICES, 1)
    # fine on v1
    mgr1 = CgroupManager(version=1)
    mgr1.create("/j")
    mgr1.set_limit("/j", Controller.DEVICES, 1)


def test_unprivileged_limit_write_requires_delegation():
    mgr = CgroupManager(version=2)
    mgr.create("/d")
    with pytest.raises(EPERM):
        mgr.set_limit("/d", Controller.CPU, 1.0, by_uid=1000)
    mgr.delegate("/d", uid=1000)
    mgr.set_limit("/d", Controller.CPU, 1.0, by_uid=1000)


def test_attach_moves_pid_between_cgroups():
    mgr = CgroupManager(version=2)
    mgr.create("/one")
    mgr.create("/two")
    mgr.attach("/one", pid=42)
    assert mgr.cgroup_of(42).path == "/one"
    mgr.attach("/two", pid=42)
    assert mgr.cgroup_of(42).path == "/two"
    one = mgr._resolve("/one")
    assert 42 not in one.procs


def test_attach_permission():
    mgr = CgroupManager(version=2)
    mgr.create("/locked")
    with pytest.raises(EPERM):
        mgr.attach("/locked", pid=7, by_uid=1000)


def test_charge_propagates_to_ancestors():
    mgr = CgroupManager(version=2)
    leaf = mgr.create("/acct/job/step")
    leaf.charge(Controller.CPU, 12.5)
    assert mgr._resolve("/acct/job").usage[Controller.CPU] == 12.5
    assert mgr.root.usage[Controller.CPU] == 12.5
    leaf.charge(Controller.CPU, 2.5)
    assert mgr.root.usage[Controller.CPU] == 15.0


def test_missing_cgroup_raises():
    mgr = CgroupManager(version=2)
    with pytest.raises(ENOENT):
        mgr.attach("/ghost", pid=1)


def test_remove_follows_v2_rmdir_rules():
    mgr = CgroupManager(version=2)
    mgr.create("/slurm/job_1")
    mgr.delegate("/slurm/job_1", uid=1000)
    mgr.create("/slurm/job_1/pod-a/ctr", by_uid=1000)
    mgr.attach("/slurm/job_1/pod-a/ctr", pid=42, by_uid=1000)
    with pytest.raises(EBUSY):
        mgr.remove("/slurm/job_1/pod-a", by_uid=1000)  # has a child
    with pytest.raises(EBUSY):
        mgr.remove("/slurm/job_1/pod-a/ctr", by_uid=1000)  # has a process
    mgr.detach(42)
    assert mgr.cgroup_of(42) is None
    with pytest.raises(EPERM):
        mgr.remove("/slurm/job_1/pod-a/ctr", by_uid=2000)  # not delegated to 2000
    mgr.remove("/slurm/job_1/pod-a/ctr", by_uid=1000)
    mgr.remove("/slurm/job_1/pod-a", by_uid=1000)
    assert not mgr.exists("/slurm/job_1/pod-a")
    with pytest.raises(EPERM):
        mgr.remove("/slurm/job_1", by_uid=1000)  # the delegation root itself
    with pytest.raises(ENOENT):
        mgr.remove("/slurm/job_1/pod-a")
    with pytest.raises(EINVAL):
        mgr.remove("/")
    mgr.remove("/slurm/job_1")  # root may


def test_remove_needs_root_on_v1():
    mgr = CgroupManager(version=1)
    mgr.create("/j")
    with pytest.raises(EPERM):
        mgr.remove("/j", by_uid=1000)
    mgr.remove("/j")
    assert not mgr.exists("/j")


def test_pid_index_tracks_attach_and_detach():
    mgr = CgroupManager(version=2)
    mgr.create("/a")
    mgr.create("/b")
    mgr.attach("/a", pid=7)
    mgr.attach("/b", pid=7)
    assert mgr.cgroup_of(7).path == "/b"
    assert mgr.cgroup_at("/a").procs == set()
    mgr.detach(7)
    mgr.detach(7)  # detaching twice is a no-op
    assert mgr.cgroup_of(7) is None and mgr.cgroup_at("/b").procs == set()
    assert mgr.exists("/a") and not mgr.exists("/a/missing")
    assert mgr.cgroup_at("/nope") is None
