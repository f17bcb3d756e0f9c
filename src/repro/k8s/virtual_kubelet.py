"""The KNoC-style virtual kubelet (§6.4, ref [41]).

"A separate service acts as a regular Kubelet.  It schedules Pods as
jobs by starting containers using e.g. Apptainer within WLM allocations,
then tracks their execution and reports back" — transparent to the
Kubernetes user, and all accounting lands in the WLM.
"""

from __future__ import annotations

import typing as _t

from repro.engines.base import ContainerEngine
from repro.k8s.apiserver import APIServer, WatchEvent, WatchEventType
from repro.k8s.objects import (
    K8sNode,
    NodeCondition,
    ObjectMeta,
    Pod,
    PodPhase,
    ResourceRequests,
)
from repro.oci.image import ImageReference
from repro.registry.distribution import OCIDistributionRegistry
from repro.sim import Environment, Signal
from repro.wlm.jobs import JobSpec
from repro.wlm.slurm import SlurmController


class VirtualKubelet:
    """Registers a huge virtual node; translates bound pods to WLM jobs."""

    #: the virtual node advertises the whole partition
    startup_cost = 1.0

    def __init__(
        self,
        env: Environment,
        apiserver: APIServer,
        wlm: SlurmController,
        engines: dict[str, ContainerEngine],
        registry: OCIDistributionRegistry,
        node_name: str = "virtual-hpc",
    ):
        self.env = env
        self.api = apiserver
        self.wlm = wlm
        self.engines = engines
        self.registry = registry
        self.node_name = node_name
        self.stats = {"pods_translated": 0, "pods_finished": 0}
        #: fired on every pod the VK touches (translated, finished) so
        #: observers can park instead of polling pod phases
        self.activity = Signal(env)
        self._started = False

    def start(self):
        return self.env.process(self._main(), name=f"vk-{self.node_name}")

    def _main(self):
        yield self.env.sleep(self.startup_cost)
        total_cores = sum(n.total_cores for n in self.wlm.nodes)
        total_gpus = sum(n.gpu_count for n in self.wlm.nodes)
        node = K8sNode(
            metadata=ObjectMeta(name=self.node_name, labels={"type": "virtual-kubelet"}),
            capacity=ResourceRequests(cpu=total_cores, memory=2**42, gpu=total_gpus),
            condition=NodeCondition(ready=True, last_heartbeat=self.env.now),
        )
        self.api.create("Node", node)
        self.api.watch("Pod", self._on_pod_event, replay_existing=True)
        self._started = True
        return node

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod):
            return
        if event.type is WatchEventType.MODIFIED and pod.node_name == self.node_name:
            if pod.phase is PodPhase.PENDING and not getattr(pod, "_vk_submitted", False):
                pod._vk_submitted = True  # type: ignore[attr-defined]
                self._submit_pod(pod)

    def _submit_pod(self, pod: Pod) -> None:
        cspec = pod.spec.containers[0]
        ref = ImageReference.parse(cspec.image)
        #: every container the job started, with the engine of the node it
        #: runs on (a requeued job starts its next one on another node)
        started: list = []

        def on_start(node, job, user_proc):
            engine = self.engines[node.name]
            pulled = engine.pull(ref.repository, ref.tag, self.registry, now=self.env.now)
            result = engine.run(pulled, user_proc, command=cspec.command or None)
            started.append((engine, result))
            pod.container_results.append(result)
            pod.phase = PodPhase.RUNNING
            pod.start_time = self.env.now
            self.api.update("Pod", pod)

        def on_end(job):
            for engine, result in started:
                engine.stop(result.container)
                engine.remove(result.container)
            pod.phase = PodPhase.SUCCEEDED
            pod.end_time = self.env.now
            self.api.update("Pod", pod)
            self.stats["pods_finished"] += 1
            self.activity.fire()

        spec = JobSpec(
            name=f"k8s-pod-{pod.metadata.name}",
            user_uid=pod.spec.user_uid,
            nodes=1,
            cores_per_node=int(pod.spec.total_requests().cpu) or 1,
            gpus_per_node=pod.spec.total_requests().gpu,
            duration=pod.spec.duration,
            exclusive=False,
            on_start=on_start,
            on_end=on_end,
        )
        job = self.wlm.submit(spec)
        job.comment = f"kubernetes-pod:{pod.metadata.namespace}/{pod.metadata.name}"
        self.stats["pods_translated"] += 1
        self.activity.fire()
