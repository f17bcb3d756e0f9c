"""§6.2 — WLM in Kubernetes.

Kubernetes owns the hardware; Slurm's daemons run as privileged pods on
every node, so classic HPC jobs keep working.  But "this approach does
not enable running containerized workloads within the WLM": user pods
run beside Slurm on the Kubernetes layer, invisible to WLM accounting,
and the extra layer costs performance.
"""

from __future__ import annotations

import typing as _t

from repro.k8s.cri import CRIRuntime
from repro.k8s.k3s import FullK8sServer
from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import (
    ContainerSpec,
    ObjectMeta,
    Pod,
    PodSpec,
    ResourceRequests,
)
from repro.scenarios.base import IntegrationScenario
from repro.sim import Environment
from repro.wlm.jobs import JobSpec
from repro.wlm.slurm import SlurmController


class WLMInKubernetesScenario(IntegrationScenario):
    name = "wlm-in-kubernetes"
    section = "§6.2"
    workflow_transparency = True       # pods are plain pods...
    standard_pod_environment = True    # ...on mainline kubelets
    isolation = "shared-cluster (privileged WLM pods beside tenants!)"

    #: reserved per node by the slurmd pod + kubelet overhead — the layer tax
    wlm_pod_cores = 2.0

    def __init__(self, env: Environment, n_nodes: int = 4, seed: int = 0):
        super().__init__(env, n_nodes, seed)
        self.k8s = FullK8sServer(env)
        self.kubelets: dict[str, Kubelet] = {}
        #: the slurmd service pods, one per node
        self.wlm_pods: list[Pod] = []
        self.wlm: SlurmController | None = None

    def provision(self):
        return self.env.process(self._provision(), name="provision-6.2")

    def _provision(self):
        yield self.k8s.ready
        # kubelets on every node (root, standard cloud deployment)
        for host in self.hosts:
            cri = CRIRuntime(self.engines[host.name], self.registry)
            kubelet = Kubelet(
                self.env, self.k8s.api, host.name, cri,
                capacity=ResourceRequests(
                    cpu=host.cpu.cores - self.wlm_pod_cores, memory=256 * 2**30
                ),
            )
            kubelet.start()
            self.kubelets[host.name] = kubelet
        yield self.env.sleep(Kubelet.startup_cost + 1.0)
        # Slurm daemons as privileged pods (one slurmd per node + slurmctld).
        for i, host in enumerate(self.hosts):
            pod = Pod(
                metadata=ObjectMeta(name=f"slurmd-{host.name}", namespace="wlm-system"),
                spec=PodSpec(
                    containers=[ContainerSpec(
                        name="slurmd",
                        image="registry.site.local/pipelines/step:v1",
                        resources=ResourceRequests(cpu=self.wlm_pod_cores),
                    )],
                    node_selector={},
                    duration=None,  # service pods
                ),
            )
            self.wlm_pods.append(pod)
            self.k8s.api.create("Pod", pod)
        yield self.env.sleep(5.0)
        # The WLM is now functional over the same hardware (privileged pods).
        self.wlm = SlurmController(self.env, self.hosts)
        self.notes.append(
            "WLM daemons run as privileged pods: multi-tenancy requires great "
            "care (§6.2); an extra layer sits under every HPC job"
        )
        self.provisioned_at = self.env.now
        return self.env.now

    # -- workload -----------------------------------------------------------------
    def submit(self, pods: _t.Sequence[Pod]) -> None:
        # Containerized workloads CANNOT go through the WLM here; they run
        # directly on Kubernetes, bypassing accounting.
        for pod in pods:
            pod._submitted_at = self.env.now  # type: ignore[attr-defined]
            self.pods.append(pod)
            self.k8s.api.create("Pod", pod)

    def submit_hpc_job(self, spec: JobSpec):
        """Classic HPC jobs still work — through the WLM layer."""
        assert self.wlm is not None, "provision first"
        return self.wlm.submit(spec)

    def teardown(self) -> None:
        """End the slurmd service pods through their kubelets' stop →
        remove path, then stop the kubelets."""
        for pod in self.wlm_pods:
            kubelet = self.kubelets.get(pod.node_name or "")
            if kubelet is not None:
                kubelet.terminate_pod(pod)
        for kubelet in self.kubelets.values():
            kubelet.stop()

    def _accounted_cpu_seconds(self) -> float:
        # Pod workload bypasses the WLM entirely.
        return 0.0
