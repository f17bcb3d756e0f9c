"""§6.5 — Kubernetes agents (kubelets) in a WLM allocation: the paper's
proposed approach and the proof of concept of Figure 1.

A *continuously running* K3s control plane lives on a service node;
user allocations start rootless kubelets (one per node) that join back
over the high-speed network.  Pods are scheduled onto the allocation's
nodes via a node selector, "so as to use Slurm's accounting and compute
resources", with "a fully mainline K3s, and therefore a standard
environment for Pods to run".
"""

from __future__ import annotations

import typing as _t

from repro.cluster.network import Interconnect
from repro.k8s.cri import CRIRuntime
from repro.k8s.k3s import K3sServer
from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import Pod, ResourceRequests
from repro.scenarios.base import IntegrationScenario
from repro.sim import Environment
from repro.wlm.jobs import JobSpec
from repro.wlm.slurm import SlurmController


class KubeletInAllocationScenario(IntegrationScenario):
    name = "kubelet-in-allocation"
    section = "§6.5"
    workflow_transparency = True      # plain pods onto the standing cluster
    standard_pod_environment = True   # mainline K3s kubelets
    isolation = "per-allocation nodes, shared control plane"

    def __init__(self, env: Environment, n_nodes: int = 4, seed: int = 0,
                 allocation_user: int = 1000,
                 allocation_time_limit: float = 24 * 3600):
        super().__init__(env, n_nodes, seed)
        self.allocation_time_limit = allocation_time_limit
        self.wlm = SlurmController(env, self.hosts)
        #: the standing control plane on a service node (outside compute)
        self.k3s = K3sServer(env)
        #: Slingshot interconnect carrying kubelet <-> server traffic (Fig. 1)
        self.network = Interconnect(self.hosts[0].nic)
        self.allocation_user = allocation_user
        self.kubelets: list[Kubelet] = []
        #: agents stopped by a requeue, kept visible for leak checks
        self.retired_kubelets: list[Kubelet] = []
        self.job = None
        self._agents_ready = env.event()
        self._joined = 0

    def provision(self):
        return self.env.process(self._provision(), name="provision-6.5")

    def _provision(self):
        # The control plane is a standing service: in steady state it is
        # already up; we still count its one-time start here, but also
        # record the steady-state (per-allocation) provision time, which
        # is what a user actually waits for — contrast §6.3 where every
        # workflow pays the full cluster bootstrap.
        yield self.k3s.ready
        self._control_plane_ready_at = self.env.now
        spec = JobSpec(
            name="k8s-agents",
            user_uid=self.allocation_user,
            nodes=self.n_nodes,
            duration=None,
            time_limit=self.allocation_time_limit,
            on_start=self._start_agent,
            on_requeue=self._on_requeue,
        )
        self.job = self.wlm.submit(spec)
        yield self._agents_ready
        self.provisioned_at = self.env.now
        self.steady_state_provision_time = self.env.now - self._control_plane_ready_at
        self.notes.append(
            f"steady-state (standing control plane) provision: "
            f"{self.steady_state_provision_time:.1f}s per allocation"
        )
        return self.env.now

    def _start_agent(self, node, job, user_proc) -> None:
        host = node.host
        cg_path = f"/slurm/uid_{job.spec.user_uid}/job_{job.job_id}"
        cri = CRIRuntime(self.engines[node.name], self.registry)
        kubelet = Kubelet(
            self.env,
            self.k3s.api,
            node.name,
            cri,
            capacity=ResourceRequests(cpu=host.cpu.cores, memory=256 * 2**30),
            labels={
                "hpc.allocation": str(job.job_id),
                "hpc.user": str(job.spec.user_uid),
            },
            network=self.network,
            user_proc=user_proc,
            cgroup_path=cg_path,
        )
        kubelet.start()
        self.kubelets.append(kubelet)
        self.env.process(self._count_join(), name=f"join-{node.name}")

    def _on_requeue(self, job) -> None:
        """The agents' service job lost a node and is being requeued.

        Kubelets on the *surviving* nodes must stop too — the allocation
        (cgroups, user processes) that hosts them is going away — with
        their active pods evicted back to FAILED.  The crashed node's
        kubelet already died via its own ``"wlm.node"`` handler, so
        stopping it again is a no-op.  Fresh agents come up through
        ``on_start`` when the job lands on its next allocation.
        """
        for kubelet in self.kubelets:
            kubelet.evict_active_pods(reason="allocation lost (node failure)")
            kubelet.stop()
        self.retired_kubelets.extend(self.kubelets)
        self.kubelets.clear()
        self._joined = 0

    def _count_join(self):
        yield self.env.sleep(Kubelet.startup_cost + 0.5)
        self._joined += 1
        if self._joined == self.n_nodes and not self._agents_ready.triggered:
            self._agents_ready.succeed(self.env.now)

    def submit(self, pods: _t.Sequence[Pod]) -> None:
        assert self.job is not None, "provision first"
        for pod in pods:
            # Pods target the allocation transparently via the selector the
            # admission layer injects (no change to the pod the user wrote).
            pod.spec.node_selector.setdefault("hpc.allocation", str(self.job.job_id))
            pod.spec.user_uid = self.allocation_user
            pod._submitted_at = self.env.now  # type: ignore[attr-defined]
            self.pods.append(pod)
            self.k3s.api.create("Pod", pod)

    def teardown(self) -> None:
        for kubelet in self.kubelets:
            kubelet.stop()
        if self.job is not None:
            self.wlm.cancel(self.job)

    def _accounted_cpu_seconds(self) -> float:
        if self.job is None or self.job.start_time is None:
            return 0.0
        cores = self.hosts[0].cpu.cores
        end = self.job.end_time if self.job.end_time is not None else self.env.now
        return (end - self.job.start_time) * cores * self.n_nodes
