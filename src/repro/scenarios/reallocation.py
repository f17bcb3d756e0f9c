"""§6.1 — On-demand reallocation of compute nodes.

A minimal dedicated Kubernetes cluster on separate hardware; when pods
arrive, WLM nodes are drained, reconfigured (minutes!), and joined to
Kubernetes as ephemeral nodes; idle nodes are returned.  Accounting for
pod work never reaches the WLM, and reconfiguration churn eats capacity
(§6.6: "dynamic partitioning ... is cumbersome, slow and introduces
disturbances").
"""

from __future__ import annotations

import math
import typing as _t

from repro.k8s.apiserver import APIServer
from repro.k8s.cri import CRIRuntime
from repro.k8s.k3s import FullK8sServer
from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import Pod, PodPhase, ResourceRequests
from repro.scenarios.base import WORKFLOW_IMAGE, IntegrationScenario
from repro.sim import Environment, Signal
from repro.sim.signal import count_skipped_ticks
from repro.wlm.slurm import SlurmController


class OnDemandReallocationScenario(IntegrationScenario):
    name = "on-demand-reallocation"
    section = "§6.1"
    workflow_transparency = True      # users submit plain pods
    standard_pod_environment = True   # mainline kubelets on real nodes
    isolation = "shared-cluster"

    #: cost of taking a node out of the WLM and reconfiguring it as a
    #: Kubernetes node (reboot/reprovision + join)
    reconfigure_cost = 90.0
    #: idle timeout before an ephemeral node is returned to the WLM
    return_after_idle = 60.0

    def __init__(self, env: Environment, n_nodes: int = 4, seed: int = 0):
        super().__init__(env, n_nodes, seed)
        self.wlm = SlurmController(env, self.hosts)
        self.k8s = FullK8sServer(env)  # dedicated control-plane hardware
        self.kubelets: dict[str, Kubelet] = {}
        self._provision_proc = None

    def provision(self):
        def ready(env):
            yield self.k8s.ready
            self.provisioned_at = env.now
            return env.now

        self._provision_proc = self.env.process(ready(self.env), name="provision-6.1")
        return self._provision_proc

    def submit(self, pods: _t.Sequence[Pod]) -> None:
        for pod in pods:
            pod._submitted_at = self.env.now  # type: ignore[attr-defined]
            self.pods.append(pod)
        self.env.process(self._reallocate_and_run(list(pods)), name="reallocate")

    def _nodes_needed(self, pods: list[Pod]) -> int:
        cores = self.hosts[0].cpu.cores
        demand = sum(p.spec.total_requests().cpu for p in pods)
        return min(self.n_nodes, max(1, math.ceil(demand / cores)))

    def _reallocate_and_run(self, pods: list[Pod]):
        needed = self._nodes_needed(pods)
        victims = [n for n in self.wlm.nodes if not n.allocations][:needed]
        if len(victims) < needed:
            self.notes.append("insufficient idle nodes; pods waited for drains")
        names = [n.name for n in victims]
        self.wlm.drain_nodes(names, reason="kubernetes reallocation")
        # Reconfiguration is the expensive part (per node, parallel).
        yield self.env.sleep(self.reconfigure_cost)
        for node in victims:
            cri = CRIRuntime(self.engines[node.name], self.registry)
            kubelet = Kubelet(
                self.env,
                self.k8s.api,
                node.name,
                cri,
                capacity=ResourceRequests(cpu=node.total_cores, memory=256 * 2**30),
            )
            kubelet.start()
            self.kubelets[node.name] = kubelet
        for pod in pods:
            self.k8s.api.create("Pod", pod)
        self.env.process(self._return_nodes_when_idle(names), name="return-nodes")

    def _return_nodes_when_idle(self, names: list[str]):
        # Tickless: park on pod watch events instead of the 10 s poll,
        # then resume at the grid tick the poll would have noticed the
        # last completion (>= now: pod-finish events carry older sequence
        # numbers than a same-time poll tick, so the poll saw them).
        epoch = self.env.now
        signal = Signal(self.env)
        watch_cb = self.k8s.api.watch_signal("Pod", signal)
        while not all(
            p.phase in (PodPhase.SUCCEEDED, PodPhase.FAILED) for p in self.pods
        ):
            token = signal.park()
            yield token
            signal.unpark(token)
        self.k8s.api.unwatch("Pod", watch_cb)
        tick = epoch + 10.0
        skipped = 0
        while tick < self.env.now:
            tick += 10.0
            skipped += 1
        count_skipped_ticks(self.env, skipped)
        yield self.env.sleep_until(tick)
        yield self.env.sleep(self.return_after_idle)
        for name in names:
            kubelet = self.kubelets.pop(name, None)
            if kubelet is not None:
                kubelet.stop()
        # Reconfigure back into the WLM (same churn in reverse).
        yield self.env.sleep(self.reconfigure_cost)
        self.wlm.resume_nodes(names)
        self.notes.append(
            f"{len(names)} nodes spent 2x{self.reconfigure_cost:.0f}s reconfiguring "
            f"+ {self.return_after_idle:.0f}s idle-drain: capacity lost to churn"
        )

    def _accounted_cpu_seconds(self) -> float:
        # Kubernetes pods never appear in Slurm accounting here.
        return 0.0
