"""Tests for SPANK container plugins (Shifter / pyxis): Table 3's WLM
integration rows as behaviour."""

import pytest

from repro.cluster import GPUDevice, HostNode
from repro.engines import EnrootEngine, ShifterEngine
from repro.faults.leaks import retained_state_leaks
from repro.oci import Builder
from repro.oci.catalog import BaseImageCatalog
from repro.oci.runtime import ContainerState
from repro.registry import OCIDistributionRegistry
from repro.sim import Environment
from repro.wlm import JobSpec, JobState, SlurmController
from repro.wlm.plugins import PyxisSpankPlugin, ShifterSpankPlugin
from repro.wlm.spank import SpankError


@pytest.fixture
def registry():
    reg = OCIDistributionRegistry(name="site")
    img = Builder(BaseImageCatalog()).build_dockerfile(
        "FROM ubuntu:22.04\nRUN write /opt/app 1000000\nENTRYPOINT /opt/app"
    )
    reg.push_image("hpc/app", "v1", img)
    return reg


def run_with_plugin(plugin_cls, engine_cls, registry, option_key):
    env = Environment()
    hosts = [HostNode(name=f"n{i}", gpus=[GPUDevice("nvidia", "a100", 0)]) for i in range(2)]
    ctl = SlurmController(env, hosts)
    engines = {h.name: engine_cls(h) for h in hosts}
    ctl.spank.load(plugin_cls(engines, registry), controller=ctl)

    results = {}

    def on_start(node, job, user_proc):
        if node.name == job.allocated_nodes[0] and "step" not in results:
            step = ctl.srun(job, ("app",), options={option_key: "hpc/app:v1"})
            results["step"] = step

    job = ctl.submit(
        JobSpec(name="ctr-job", user_uid=1000, nodes=2, duration=60, on_start=on_start)
    )
    env.run()
    return ctl, job, results


def test_shifter_spank_launches_containers(registry):
    ctl, job, results = run_with_plugin(
        ShifterSpankPlugin, ShifterEngine, registry, "shifter_image"
    )
    assert job.state is JobState.COMPLETED
    step = results["step"]
    contexts = step.contexts
    assert len(contexts) == 2  # one task per allocated node
    for ctx in contexts:
        assert ctx.run_result is not None
        assert ctx.run_result.container.state is ContainerState.RUNNING
        # container runs as the job user, inside the allocation
        assert ctx.run_result.container.proc.host_uid() == 1000


def test_pyxis_spank_launches_enroot(registry):
    ctl, job, results = run_with_plugin(
        PyxisSpankPlugin, EnrootEngine, registry, "container_image"
    )
    step = results["step"]
    assert all(ctx.run_result is not None for ctx in step.contexts)


def test_plain_step_unaffected_by_plugin(registry):
    env = Environment()
    hosts = [HostNode(name="n0")]
    ctl = SlurmController(env, hosts)
    engines = {h.name: ShifterEngine(h) for h in hosts}
    ctl.spank.load(ShifterSpankPlugin(engines, registry))
    captured = {}

    def on_start(node, job, user_proc):
        captured["step"] = ctl.srun(job, ("hostname",))  # no image option

    ctl.submit(JobSpec(name="plain", user_uid=1, duration=5, on_start=on_start))
    env.run()
    assert all(ctx.run_result is None for ctx in captured["step"].contexts)


def test_plugin_missing_engine_errors(registry):
    env = Environment()
    hosts = [HostNode(name="n0")]
    ctl = SlurmController(env, hosts)
    ctl.spank.load(ShifterSpankPlugin({}, registry))  # not deployed anywhere
    errors = []

    def on_start(node, job, user_proc):
        try:
            ctl.srun(job, ("app",), options={"shifter_image": "hpc/app:v1"})
        except SpankError as exc:
            errors.append(str(exc))

    ctl.submit(JobSpec(name="j", user_uid=1, duration=5, on_start=on_start))
    env.run()
    assert errors and "not deployed" in errors[0]


def test_task_exit_stops_containers(registry):
    env = Environment()
    hosts = [HostNode(name="n0")]
    ctl = SlurmController(env, hosts)
    engines = {h.name: ShifterEngine(h) for h in hosts}
    ctl.spank.load(ShifterSpankPlugin(engines, registry))
    captured = {}

    def on_start(node, job, user_proc):
        step = ctl.srun(job, ("app",), options={"shifter_image": "hpc/app:v1"})
        ctl.finish_step(job, step)
        captured["step"] = step

    ctl.submit(JobSpec(name="j", user_uid=1, duration=5, on_start=on_start))
    env.run()
    ctx = captured["step"].contexts[0]
    container = ctx.run_result.container
    # stop → remove: the record is gone and the process reaped
    assert container.state is ContainerState.DELETED
    assert container.id not in engines["n0"].runtime.containers
    assert container.proc.pid not in hosts[0].kernel.processes


@pytest.mark.parametrize(
    "plugin_cls,engine_cls,option_key",
    [
        (ShifterSpankPlugin, ShifterEngine, "shifter_image"),
        (PyxisSpankPlugin, EnrootEngine, "container_image"),
    ],
)
def test_finished_spank_steps_leave_no_retained_state(
    registry, plugin_cls, engine_cls, option_key
):
    """Five container jobs on one node: each step's end gives back its
    container record, process and monitor."""
    env = Environment()
    hosts = [HostNode(name="n0")]
    ctl = SlurmController(env, hosts)
    engines = {h.name: engine_cls(h) for h in hosts}
    ctl.spank.load(plugin_cls(engines, registry))

    def on_start(node, job, user_proc):
        step = ctl.srun(job, ("app",), options={option_key: "hpc/app:v1"})
        ctl.finish_step(job, step)

    for i in range(5):
        ctl.submit(JobSpec(name=f"j{i}", user_uid=1, duration=5, on_start=on_start))
    env.run()
    assert len(ctl.accounting.all()) == 5
    assert retained_state_leaks(engines.values(), []) == []
