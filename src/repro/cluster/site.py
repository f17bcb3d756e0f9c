"""The Site: the full adaptive-containerization deployment in one object.

Composes everything the paper's architecture needs — compute nodes with
a chosen kernel profile, a shared filesystem, a WLM, a per-node engine
fleet, a site registry (optionally proxying an upstream), and the
decision machinery — so downstream users can stand up a whole site in a
few lines (see ``examples/``).
"""

from __future__ import annotations

import typing as _t

from repro.cluster.hardware import GPUDevice
from repro.cluster.network import Interconnect
from repro.cluster.node import HostNode
from repro.core.requirements import SiteRequirements
from repro.core.selection import rank_engines
from repro.engines.base import ContainerEngine
from repro.fs.backends import SharedFS
from repro.oci.builder import Builder
from repro.oci.catalog import BaseImageCatalog
from repro.oci.image import OCIImage
from repro.registry.distribution import OCIDistributionRegistry
from repro.registry.proxy import PullThroughProxy
from repro.sim import Environment
from repro.wlm.slurm import SlurmController


class Site:
    """A deployed HPC site with containers end to end."""

    def __init__(
        self,
        env: Environment,
        requirements: SiteRequirements | None = None,
        n_nodes: int = 4,
        gpus_per_node: int = 0,
        gpu_vendor: str = "nvidia",
        engine_cls: type[ContainerEngine] | None = None,
        upstream_registry: OCIDistributionRegistry | None = None,
    ):
        self.env = env
        self.requirements = requirements or SiteRequirements()
        if engine_cls is None:
            ranked = rank_engines(self.requirements)
            if not ranked[0][1].compliant:
                raise RuntimeError(
                    f"no engine satisfies {self.requirements.name}'s requirements; "
                    "pass engine_cls explicitly to override"
                )
            engine_cls = ranked[0][0]
        self.engine_cls = engine_cls

        self.sharedfs = SharedFS(env=env)
        self.network = Interconnect()
        self.hosts = [
            HostNode(
                name=f"nid{i:04}",
                kernel_config=self.requirements.kernel,
                gpus=[
                    GPUDevice(vendor=gpu_vendor, model="sim-gpu", index=j)
                    for j in range(gpus_per_node)
                ],
                sharedfs=self.sharedfs,
                env=env,
            )
            for i in range(n_nodes)
        ]
        self.wlm = SlurmController(env, self.hosts)
        self.engines: dict[str, ContainerEngine] = {
            h.name: engine_cls(h) for h in self.hosts
        }
        self.registry = OCIDistributionRegistry(name=f"{self.requirements.name}-registry")
        self.proxy: PullThroughProxy | None = (
            PullThroughProxy(upstream_registry) if upstream_registry is not None else None
        )
        self.builder = Builder(BaseImageCatalog())

    # -- image lifecycle -------------------------------------------------------------
    def publish(self, repository: str, tag: str, dockerfile: str,
                context=None) -> OCIImage:
        """Build on the site's build host and push to the site registry."""
        image = self.builder.build_dockerfile(dockerfile, context=context)
        self.registry.push_image(repository, tag, image)
        return image

    # -- workflow / job execution -------------------------------------------------------
    def run_workflow(self, workflow):
        """Submit a `repro.core.Workflow` onto this site's WLM."""
        return workflow.run_on_wlm(self.env, self.wlm, self.engines, self.registry)

    def decision_report(self):
        from repro.core.decision import DecisionReport

        return DecisionReport(self.requirements)

    def __repr__(self) -> str:
        return (
            f"<Site {self.requirements.name}: {len(self.hosts)} nodes, "
            f"engine={self.engine_cls.info.name}>"
        )
