"""Cluster hardware model: nodes, devices, interconnect, sites."""

from repro.cluster.capacity import CapacityIndex
from repro.cluster.hardware import CPUSpec, GPUDevice, MICROARCH_LEVELS, NICSpec
from repro.cluster.node import HostNode
from repro.cluster.network import Interconnect

__all__ = [
    "CPUSpec",
    "CapacityIndex",
    "GPUDevice",
    "HostNode",
    "Interconnect",
    "MICROARCH_LEVELS",
    "NICSpec",
    "Site",
]


def __getattr__(name):
    # Site pulls in core/engines/wlm; import lazily to keep the low-level
    # cluster package cycle-free.
    if name == "Site":
        from repro.cluster.site import Site

        return Site
    raise AttributeError(name)
