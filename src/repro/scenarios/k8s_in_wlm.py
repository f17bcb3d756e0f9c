"""§6.3 — Kubernetes in WLM.

The user's job allocation bootstraps an entire private Kubernetes: K3s
server on the first node, rootless kubelets on the rest.  Perfect
per-user isolation and full WLM accounting — but "it can introduce
considerable startup overhead.  Until the Kubernetes cluster is ready,
scheduling Pods or running workflows is not possible", and the workflow
must be changed to bootstrap the cluster first.

The cluster job is a requeueable service job.  When a node crash
requeues it, its surviving kubelets evict their pods and stop (the
allocation hosting them is gone), and the next incarnation restarts K3s
on its new head node over the cluster's datastore, then rejoins its
agents; pods still pending in the store run there.  Readiness is
signalled once, by the first incarnation.
"""

from __future__ import annotations

import typing as _t

from repro.k8s.cri import CRIRuntime
from repro.k8s.k3s import K3sServer
from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import Pod, ResourceRequests
from repro.scenarios.base import IntegrationScenario
from repro.sim import Environment
from repro.wlm.jobs import JobSpec
from repro.wlm.slurm import SlurmController


class KubernetesInWLMScenario(IntegrationScenario):
    name = "kubernetes-in-wlm"
    section = "§6.3"
    workflow_transparency = False    # user must bootstrap a cluster first
    standard_pod_environment = True  # mainline K3s once it is up
    isolation = "per-user-cluster"

    def __init__(self, env: Environment, n_nodes: int = 4, seed: int = 0):
        super().__init__(env, n_nodes, seed)
        self.wlm = SlurmController(env, self.hosts)
        self.k3s: K3sServer | None = None
        self.kubelets: list[Kubelet] = []
        #: agents stopped by a requeue, kept visible for leak checks
        self.retired_kubelets: list[Kubelet] = []
        #: bumped per requeue: a join still waiting for an incarnation
        #: the requeue ended must not start agents
        self._incarnation = 0
        self.job = None
        self._cluster_ready = env.event()

    def provision(self):
        """Submit the cluster-bootstrap job and wait for K3s + kubelets."""
        spec = JobSpec(
            name="k8s-cluster",
            user_uid=1000,
            nodes=self.n_nodes,
            duration=None,  # holds the allocation until cancelled
            time_limit=24 * 3600,
            on_start=self._node_up,
            on_requeue=self._on_requeue,
        )
        self.job = self.wlm.submit(spec)
        return self.env.process(self._wait_ready(), name="provision-6.3")

    def _node_up(self, node, job, user_proc) -> None:
        first = node.name == job.allocated_nodes[0]
        if first:
            # K3s server starts on the head node of the allocation.
            restart = self.k3s is not None
            if not restart:
                self.k3s = K3sServer(self.env)
            self.env.process(
                self._join_agents(job, restart, self._incarnation), name="join-agents"
            )

    def _on_requeue(self, job) -> None:
        """The cluster job lost a node: every agent goes with the
        allocation (the crashed node's kubelet already died through its
        own fault handler, so stopping it again is a no-op)."""
        for kubelet in self.kubelets:
            kubelet.evict_active_pods(reason="allocation lost (node failure)")
            kubelet.stop()
        self.retired_kubelets.extend(self.kubelets)
        self.kubelets.clear()
        self._incarnation += 1

    def _join_agents(self, job, restart: bool, incarnation: int):
        assert self.k3s is not None
        if restart:
            # the server restarts on the new head node over its datastore
            yield self.env.sleep(K3sServer.startup_cost)
        if not self.k3s.is_ready:
            yield self.k3s.ready
        if incarnation != self._incarnation:
            return  # requeued while the server came up
        for name in job.allocated_nodes:
            host = next(h for h in self.hosts if h.name == name)
            user_proc = job.node_procs[name]
            cg_path = f"/slurm/uid_{job.spec.user_uid}/job_{job.job_id}"
            cri = CRIRuntime(self.engines[name], self.registry)
            kubelet = Kubelet(
                self.env, self.k3s.api, name, cri,
                capacity=ResourceRequests(cpu=host.cpu.cores, memory=256 * 2**30),
                user_proc=user_proc,
                cgroup_path=cg_path,
            )
            kubelet.start()
            self.kubelets.append(kubelet)
        yield self.env.sleep(Kubelet.startup_cost + 1.0)
        if incarnation == self._incarnation and not self._cluster_ready.triggered:
            self._cluster_ready.succeed(self.env.now)

    def _wait_ready(self):
        yield self._cluster_ready
        self.provisioned_at = self.env.now
        self.notes.append(
            f"private cluster bootstrap inside the allocation took "
            f"{self.provisioned_at:.1f}s of allocated (billed!) node time"
        )
        return self.env.now

    def submit(self, pods: _t.Sequence[Pod]) -> None:
        assert self.k3s is not None, "provision first"
        for pod in pods:
            pod._submitted_at = self.env.now  # type: ignore[attr-defined]
            self.pods.append(pod)
            self.k3s.api.create("Pod", pod)

    def teardown(self) -> None:
        for kubelet in self.kubelets:
            kubelet.stop()
        if self.job is not None:
            self.wlm.cancel(self.job)

    def _accounted_cpu_seconds(self) -> float:
        """The hosting job covers all pod work (and more: the whole
        allocation is billed, idle or not)."""
        if self.job is None:
            return 0.0
        if self.job.end_time is not None:
            records = [r for r in self.wlm.accounting.all() if r.job_id == self.job.job_id]
            return sum(r.cpu_seconds for r in records)
        # still running: bill so far
        if self.job.start_time is None:
            return 0.0
        cores = self.hosts[0].cpu.cores
        return (self.env.now - self.job.start_time) * cores * self.n_nodes
