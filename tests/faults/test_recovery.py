"""Recovery policies under injected faults: registry backoff, error
aggregation, Slurm requeue on node failure, MDS degradation, FUSE death,
and hook failures."""

import pytest

from repro.cluster import HostNode
from repro.engines import PodmanEngine
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RetryExhausted,
)
from repro.fs import FileTree
from repro.fs.backends import SharedFS
from repro.fs.tree import FsError
from repro.kernel import KernelConfig
from repro.oci import Builder, HookPoint, HookRegistry
from repro.oci.hooks import HookError
from repro.registry import (
    FSBlobStore,
    OCIDistributionRegistry,
    PullThroughProxy,
    RegistryRateLimited,
    StorageError,
)
from repro.run import run
from repro.sim import Environment
from repro.wlm import JobSpec, JobState, NodeState, SlurmController


def make_registry(name="site"):
    registry = OCIDistributionRegistry(name=name)
    image = Builder().build_dockerfile("FROM alpine\nRUN write /opt/x 100000")
    registry.push_image("ok/app", "v1", image)
    return registry


def arm(events):
    run.faults.arm(FaultPlan(events), Environment())


# -- registry backoff ---------------------------------------------------------------

def test_pull_retries_escape_a_transient_429_window():
    registry = make_registry()
    engine = PodmanEngine(HostNode())
    arm([FaultEvent(kind=FaultKind.REGISTRY_429, at=0.0, duration=2.0)])
    pulled = engine.pull("ok/app", "v1", registry, now=0.0)
    # the backoff accounted itself into pull_cost: strictly more than a
    # fault-free pull, and the retries were recorded for the report
    assert pulled.pull_cost > 2.0
    assert run.faults.retry_counts["registry"] >= 1
    assert run.faults.injected_counts["registry_429"] >= 1


def test_pull_exhaustion_surfaces_one_aggregated_error():
    registry = make_registry()
    engine = PodmanEngine(HostNode())
    arm([FaultEvent(kind=FaultKind.REGISTRY_429, at=0.0, duration=10_000.0)])
    with pytest.raises(RetryExhausted) as excinfo:
        engine.pull("ok/app", "v1", registry, now=0.0)
    exc = excinfo.value
    assert exc.subsystem == "registry"
    assert exc.attempts == engine.pull_retry.max_attempts
    assert isinstance(exc.last_cause, RegistryRateLimited)
    assert exc.__cause__ is exc.last_cause
    assert "giving up after 5 attempts" in str(exc)


def test_timeout_faults_account_client_timeout_per_attempt():
    registry = make_registry()
    engine = PodmanEngine(HostNode())
    arm([FaultEvent(kind=FaultKind.REGISTRY_TIMEOUT, at=0.0, duration=10_000.0)])
    with pytest.raises(RetryExhausted) as excinfo:
        engine.pull("ok/app", "v1", registry, now=0.0)
    # every attempt hung for the transport's client timeout
    n = engine.pull_retry.max_attempts
    assert excinfo.value.elapsed >= n * registry.transport.client_timeout


def test_slow_blob_fault_inflates_pull_cost_without_erroring():
    registry = make_registry()
    engine = PodmanEngine(HostNode())
    baseline = engine.pull("ok/app", "v1", registry, now=0.0).pull_cost
    engine2 = PodmanEngine(HostNode())
    arm([
        FaultEvent(
            kind=FaultKind.REGISTRY_SLOW_BLOB, at=0.0, duration=10_000.0, factor=5.0
        )
    ])
    slowed = engine2.pull("ok/app", "v1", registry, now=0.0).pull_cost
    assert slowed > baseline


def test_full_blob_store_mid_pull_aggregates_not_bare_storage_error():
    """Satellite regression: a StorageError from a full pull-through cache
    during a retried pull must surface as RetryExhausted (attempt count +
    last cause), never as the bare final StorageError."""
    upstream = make_registry(name="upstream")
    proxy = PullThroughProxy(upstream, name="edge")
    proxy.cache = OCIDistributionRegistry(
        name="edge-store", store=FSBlobStore(capacity_bytes=1_000)
    )
    engine = PodmanEngine(HostNode())
    with pytest.raises(RetryExhausted) as excinfo:
        engine.pull("ok/app", "v1", proxy, now=0.0)
    exc = excinfo.value
    assert exc.attempts == engine.pull_retry.max_attempts
    assert isinstance(exc.last_cause, StorageError)
    assert isinstance(exc.__cause__, StorageError)


# -- WLM node failure ---------------------------------------------------------------

def make_wlm(env, n=2):
    hosts = [HostNode(name=f"nid{i:04}", kernel_config=KernelConfig.modern_hpc())
             for i in range(n)]
    return SlurmController(env, hosts)


def test_node_crash_requeues_job_and_keeps_node_down():
    env = Environment()
    wlm = make_wlm(env)
    job = wlm.submit(JobSpec(name="work", user_uid=1000, nodes=1, duration=100.0))
    env.run(until=10.0)
    assert job.state is JobState.RUNNING
    victim_name = job.allocated_nodes[0]
    wlm.fail_node(victim_name, reason="kernel panic")
    env.run(until=11.0)
    victim = next(n for n in wlm.nodes if n.name == victim_name)
    assert victim.state is NodeState.DOWN          # release() must not resurrect
    assert job.requeue_count == 1
    assert any(s is JobState.NODE_FAIL for _, s in job.state_log)
    env.run(until=400.0)
    assert job.state is JobState.COMPLETED         # re-ran on the surviving node
    assert job.allocated_nodes[0] != victim_name
    assert victim.state is NodeState.DOWN
    wlm.restore_node(victim_name)
    assert victim.state is NodeState.IDLE


def test_node_crash_without_requeue_is_terminal():
    env = Environment()
    wlm = make_wlm(env)
    job = wlm.submit(
        JobSpec(name="fragile", user_uid=1000, nodes=1, duration=100.0, requeue=False)
    )
    env.run(until=10.0)
    wlm.fail_node(job.allocated_nodes[0])
    env.run(until=400.0)
    assert job.state is JobState.NODE_FAIL
    assert job.state.is_terminal
    assert job.requeue_count == 0


def test_injected_node_crash_drives_fail_and_restore():
    """End to end through the push driver: the controller registers for
    "wlm.node" at construction, the driver crashes the node mid-job and
    restores it when the window closes."""
    env = Environment()
    plan = FaultPlan([
        FaultEvent(kind=FaultKind.NODE_CRASH, at=20.0, duration=30.0, target="nid0000"),
    ])
    run.faults.arm(plan, env)
    wlm = make_wlm(env, n=1)          # single node: requeued job must wait
    job = wlm.submit(JobSpec(name="work", user_uid=1000, nodes=1, duration=40.0))
    env.run(until=30.0)
    node = wlm.nodes[0]
    assert node.state is NodeState.DOWN
    assert job.state is JobState.PENDING
    env.run(until=200.0)
    assert node.state is not NodeState.DOWN       # restored at t=50
    assert job.state is JobState.COMPLETED
    assert job.requeue_count == 1


# -- shared-FS MDS faults -----------------------------------------------------------

def make_sharedfs(env):
    fs = SharedFS(env=env)
    fs.tree.create_file("/data/a/x", size=1000)
    return fs


def run_proc_open(env, fs):
    done = {}

    def proc():
        yield from fs.proc_open("/data/a/x")
        done["at"] = env.now

    env.process(proc())
    env.run(until=10_000.0)
    return done["at"]


def test_mds_outage_stalls_gracefully_until_recovery():
    env = Environment()
    fs = make_sharedfs(env)
    run.faults.arm(
        FaultPlan([FaultEvent(kind=FaultKind.MDS_OUTAGE, at=0.0, duration=50.0)]), env
    )
    finished = run_proc_open(env, fs)
    # no error; the open simply rode out the outage window
    assert finished >= 50.0
    assert run.faults.injected_counts["mds_outage"] >= 1


def test_mds_degradation_multiplies_metadata_cost():
    baseline_env = Environment()
    baseline = run_proc_open(baseline_env, make_sharedfs(baseline_env))
    env = Environment()
    fs = make_sharedfs(env)
    run.faults.arm(
        FaultPlan([
            FaultEvent(kind=FaultKind.MDS_DEGRADED, at=0.0, duration=10.0, factor=9.0)
        ]),
        env,
    )
    degraded = run_proc_open(env, fs)
    assert degraded == pytest.approx(baseline * 9.0)


# -- FUSE death ---------------------------------------------------------------------

def test_fuse_death_fails_userspace_mounts_only():
    from repro.fs import PROFILES
    from repro.fs.drivers import mount_overlay

    arm([FaultEvent(kind=FaultKind.FUSE_DEATH, at=0.0, duration=100.0)])
    tree = FileTree()
    tree.create_file("/bin/app", size=10)
    with pytest.raises(FsError, match="FUSE daemon died"):
        mount_overlay([tree], PROFILES["nvme"], fuse=True)
    # the kernel driver is unaffected by a dead FUSE daemon
    view = mount_overlay([tree], PROFILES["nvme"], fuse=False)
    assert view is not None


# -- hook failures ------------------------------------------------------------------

def test_hook_failure_window_aborts_lifecycle_but_spares_poststop():
    arm([FaultEvent(kind=FaultKind.HOOK_FAILURE, at=0.0, duration=100.0)])
    hooks = HookRegistry()
    hooks.add(HookPoint.CREATE_CONTAINER, lambda ctx: None, name="site-gpu")
    hooks.add(HookPoint.POSTSTOP, lambda ctx: None, name="site-cleanup")
    with pytest.raises(HookError, match="injected fault"):
        hooks.run(HookPoint.CREATE_CONTAINER, {})
    # cleanup hooks must stay runnable or teardown could never finish
    hooks.run(HookPoint.POSTSTOP, {})
    assert (HookPoint.POSTSTOP, "site-cleanup") in hooks.executed
