"""Tests for hardware models, interconnect, and the Site facade."""

import pytest

from repro.cluster import CPUSpec, GPUDevice, HostNode, Interconnect, Site
from repro.cluster.hardware import microarch_compatible, microarch_index
from repro.core import SiteRequirements, Workflow, WorkflowStep
from repro.kernel import KernelConfig
from repro.sim import Environment


# -- hardware -------------------------------------------------------------------

def test_microarch_levels_ordered():
    assert microarch_index("x86-64") < microarch_index("x86-64-v4")
    assert microarch_compatible("x86-64-v2", "x86-64-v3")
    assert not microarch_compatible("x86-64-v4", "x86-64-v2")
    with pytest.raises(ValueError):
        microarch_index("arm-sve")


def test_node_exposes_gpu_devices_and_host_libs():
    node = HostNode(gpus=[GPUDevice("nvidia", "a100", 0), GPUDevice("nvidia", "a100", 1)])
    assert {"nvidia0", "nvidia1"} <= node.kernel.host_devices
    assert node.local_disk.tree.exists("/usr/lib64/libcuda.so.535.104")
    assert node.local_disk.tree.exists("/opt/cray/libmpi.so.40")
    assert node.gpu_driver_version() == "535.104"
    bare = HostNode()
    assert not bare.has_gpus and bare.gpu_driver_version() is None


# -- interconnect ------------------------------------------------------------------

def test_transfer_cost_scales_with_bytes():
    net = Interconnect()
    small = net.transfer_cost(1_000)
    large = net.transfer_cost(1_000_000_000)
    assert large > 100 * small
    assert net.stats["messages"] == 2


def test_broadcast_logarithmic():
    net = Interconnect()
    one = net.broadcast_cost(1_000_000, 2)
    many = net.broadcast_cost(1_000_000, 64)
    assert many == pytest.approx(6 * one, rel=0.01)  # log2(64) rounds
    assert net.broadcast_cost(1, 1) == 0.0


def test_rpc_roundtrip():
    net = Interconnect()
    assert net.rpc_cost() > 2 * net.nic.latency


def test_rpc_cost_is_memoized_but_still_counted():
    net = Interconnect()
    first = net.rpc_cost()
    assert net.rpc_cost() == first
    # the memoized price is exactly the two one-way transfers
    fresh = Interconnect()
    assert first == fresh.transfer_cost(512) + fresh.transfer_cost(4096)
    assert net.stats == {"messages": 4, "bytes": 2 * (512 + 4096)}
    assert net.rpc_cost(100, 200) != first
    assert net.stats["messages"] == 6


# -- Site facade --------------------------------------------------------------------

def test_site_autoselects_engine_from_requirements():
    env = Environment()
    site = Site(env, SiteRequirements.security_hardened_center(), n_nodes=2)
    assert site.engine_cls.info.name == "apptainer"
    assert len(site.hosts) == 2
    assert all(h.kernel.config.allow_setuid_binaries is False for h in site.hosts)


def test_site_explicit_engine_override():
    from repro.engines import CharliecloudEngine

    env = Environment()
    site = Site(env, engine_cls=CharliecloudEngine, n_nodes=1)
    assert site.engine_cls is CharliecloudEngine


def test_site_publish_and_run_workflow():
    env = Environment()
    site = Site(env, SiteRequirements(), n_nodes=2)
    site.publish("hpc/tool", "v1", "FROM alpine:3.18\nRUN write /opt/t 1000000")
    wf = Workflow("mini", [
        WorkflowStep(name="only", image="r.site/hpc/tool:v1", duration=20, cores=2),
    ])
    proc = site.run_workflow(wf)
    makespan = env.run(until=proc)
    assert makespan >= 20
    assert len(site.wlm.accounting.by_comment_prefix("workflow:mini/")) == 1


def test_site_decision_report():
    env = Environment()
    site = Site(env, SiteRequirements.conservative_center(), n_nodes=1)
    text = site.decision_report().render()
    assert "conservative-center" in text and "sarus" in text
