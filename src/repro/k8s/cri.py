"""The Container Runtime Interface shim between kubelet and engine.

Kubelets don't call engines directly; they speak CRI.  This shim adapts
a :class:`~repro.engines.base.ContainerEngine` (or anything with its
``pull``/``run`` surface) to the handful of CRI verbs the kubelet needs.
"""

from __future__ import annotations

import typing as _t

from repro.engines.base import ContainerEngine, PulledImage, RunResult
from repro.kernel.process import SimProcess
from repro.oci.image import ImageReference
from repro.registry.distribution import OCIDistributionRegistry


class CRIRuntime:
    """CRI facade over a container engine."""

    #: per-CRI-call gRPC overhead
    call_latency = 1e-3

    def __init__(self, engine: ContainerEngine, registry: OCIDistributionRegistry):
        self.engine = engine
        self.registry = registry
        self.stats = {"pulls": 0, "containers": 0}

    def pull_image(self, image_ref: str, now: float = 0.0) -> PulledImage:
        ref = ImageReference.parse(image_ref)
        self.stats["pulls"] += 1
        return self.engine.pull(ref.repository, ref.tag, self.registry, now=now)

    def run_container(
        self,
        pulled: PulledImage,
        user: SimProcess,
        command: tuple[str, ...] = (),
        cgroup_path: str | None = None,
    ) -> RunResult:
        self.stats["containers"] += 1
        return self.engine.run(
            pulled,
            user,
            command=command or None,
            cgroup_path=cgroup_path,
        )

    def stop_container(self, result: RunResult, exit_code: int = 0) -> None:
        """StopContainer: a running container exits with ``exit_code``."""
        self.engine.stop(result.container, exit_code)

    def remove_container(self, result: RunResult) -> None:
        """RemoveContainer: nothing of a stopped container stays on the
        node — record, processes and monitor (see ``engine.remove``)."""
        self.engine.remove(result.container)
