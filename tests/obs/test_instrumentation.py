"""Instrumentation points across the stack feed the tracer/registry —
and change nothing about simulated behaviour when enabled or disabled."""

import pytest

from repro.cluster import HostNode
from repro.engines import DockerEngine, PodmanEngine, SarusEngine
from repro.kernel import KernelConfig
from repro.oci import Builder
from repro.oci.catalog import BaseImageCatalog
from repro.registry import OCIDistributionRegistry
from repro.run import ObsConfig, observing, run

TRACED = ObsConfig(metrics=True, trace=True)


@pytest.fixture
def registry():
    reg = OCIDistributionRegistry(name="site-registry")
    img = Builder(BaseImageCatalog()).build_dockerfile(
        "FROM ubuntu:22.04\nRUN write /opt/app 5000000\nENTRYPOINT /opt/app"
    )
    reg.push_image("hpc/app", "v1", img)
    return reg


def _node():
    return HostNode(name="nid0001", kernel_config=KernelConfig.modern_hpc())


def test_engine_pull_and_run_emit_spans_and_metrics(registry):
    with observing(TRACED) as traced:
        node = _node()
        engine = SarusEngine(node)
        user = node.kernel.spawn(uid=1000)
        pulled = engine.pull("hpc/app", "v1", registry)
        result = engine.run(pulled, user)
        tracer, reg = traced.tracer, traced.metrics

    names = [name for _ph, name, *_ in tracer.events]
    assert "registry.pull" in names  # the registry side of the pull
    assert "engine.pull" in names
    assert "engine.run" in names
    phases = [n for n in names if n.startswith("engine.phase.")]
    assert phases, "per-phase slices should be replayed from timings"
    # phase slices tile the run span: their durations sum to the total
    phase_total = sum(
        dur for _ph, name, _ts, _tid, _args, dur in tracer.events
        if name.startswith("engine.phase.")
    )
    assert phase_total == pytest.approx(result.startup_seconds)

    assert reg.get_counter("engine.pulls", engine="sarus") == 1
    assert reg.get_counter("engine.runs", engine="sarus") == 1
    hist = reg.get_histogram("engine.startup_seconds", engine="sarus")
    assert hist is not None and hist.count == 1
    assert reg.get_counter("registry.pulls", registry="site-registry") == 1
    assert reg.get_counter("registry.bytes", registry="site-registry", op="pull") > 0


def test_engine_run_identical_with_and_without_obs(registry):
    node_a, node_b = _node(), _node()
    user_a = node_a.kernel.spawn(uid=1000)
    user_b = node_b.kernel.spawn(uid=1000)
    engine_a, engine_b = SarusEngine(node_a), SarusEngine(node_b)

    plain = engine_a.run(engine_a.pull("hpc/app", "v1", registry), user_a)
    with observing(TRACED):
        traced = engine_b.run(engine_b.pull("hpc/app", "v1", registry), user_b)
    assert traced.startup_seconds == plain.startup_seconds
    assert traced.timings == plain.timings


def test_disabled_mode_records_nothing(registry):
    node = _node()
    engine = SarusEngine(node)
    user = node.kernel.spawn(uid=1000)
    engine.run(engine.pull("hpc/app", "v1", registry), user)
    assert len(run.tracer) == 0
    assert run.metrics.snapshot(include_sim=False) == {}


def test_docker_daemon_reports_jitter_conmon_does_not(registry):
    """§3.2, made checkable: the per-machine root daemon consumes a
    nonzero steady-state core fraction; a per-container monitor spawned
    as the user consumes none."""
    with observing(ObsConfig(metrics=True)) as metered:
        node_d = _node()
        docker = DockerEngine(node_d)
        docker.start_daemon()

        node_p = _node()
        podman = PodmanEngine(node_p)
        user = node_p.kernel.spawn(uid=1000)
        podman.run(podman.pull("hpc/app", "v1", registry), user)
        reg = metered.metrics

    dockerd = reg.get_gauge("monitor.background_cpu_fraction", monitor="dockerd")
    conmon = reg.get_gauge("monitor.background_cpu_fraction", monitor="conmon")
    assert dockerd is not None and dockerd > 0
    assert conmon == 0.0
    assert reg.get_gauge("monitor.resident_memory_bytes", monitor="dockerd") > \
        reg.get_gauge("monitor.resident_memory_bytes", monitor="conmon")


def test_mount_events_carry_driver_labels(registry):
    with observing(TRACED) as traced:
        node = _node()
        engine = SarusEngine(node)
        user = node.kernel.spawn(uid=1000)
        engine.run(engine.pull("hpc/app", "v1", registry), user)
        tracer, reg = traced.tracer, traced.metrics
    mounts = [
        args for _ph, name, _ts, _tid, args, _dur in tracer.events
        if name == "fs.mount"
    ]
    assert mounts and all("driver" in a for a in mounts)
    assert any(reg.get_counter("fs.mounts", driver=d)
               for d in ("squashfs", "squashfuse", "bind", "overlay"))
