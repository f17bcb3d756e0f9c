"""The Kubernetes 'Bridge' operator (§6.4, ref [42]).

Users *explicitly* describe WLM work as a custom resource; the operator
submits it to the WLM and reflects status back.  The paper's criticism —
"the drawback of this approach is the required explicit formulation in
the resource description" — is structural: plain Pods are NOT picked up,
only WLMJobRequest objects are.
"""

from __future__ import annotations

import dataclasses

from repro.k8s.apiserver import APIServer, WatchEvent, WatchEventType
from repro.k8s.objects import ObjectMeta
from repro.sim import Environment, Signal
from repro.wlm.jobs import JobSpec
from repro.wlm.slurm import SlurmController


@dataclasses.dataclass
class WLMJobRequest:
    """The CRD: an explicit WLM job description inside Kubernetes."""

    metadata: ObjectMeta
    nodes: int
    user_uid: int
    duration: float
    cores_per_node: int = 0
    gpus_per_node: int = 0
    #: optional container image to start inside the allocation
    image: str | None = None
    #: filled by the operator
    wlm_job_id: int | None = None
    status: str = "Submitted"


class BridgeOperator:
    """Watches WLMJobRequest objects and drives the WLM."""

    KIND = "WLMJobRequest"

    def __init__(self, env: Environment, apiserver: APIServer, wlm: SlurmController,
                 engines: dict | None = None, registry=None):
        self.env = env
        self.api = apiserver
        self.wlm = wlm
        self.engines = engines or {}
        self.registry = registry
        self.stats = {"submitted": 0, "completed": 0}
        #: fired whenever a request progresses (submitted, completed) so
        #: status mirrors can park on it instead of polling the CRD
        self.request_events = Signal(env)
        apiserver.watch(self.KIND, self._on_event, replay_existing=True)

    def _on_event(self, event: WatchEvent) -> None:
        if event.type is not WatchEventType.ADDED:
            return
        request = event.obj
        assert isinstance(request, WLMJobRequest)
        #: every container the job started, with the engine of the node
        #: it runs on (one per allocated node, requeued attempts included)
        started: list = []

        def on_start(node, job, user_proc):
            if request.image is None or self.registry is None:
                return
            engine = self.engines.get(node.name)
            if engine is None:
                return
            from repro.oci.image import ImageReference

            ref = ImageReference.parse(request.image)
            pulled = engine.pull(ref.repository, ref.tag, self.registry, now=self.env.now)
            started.append((engine, engine.run(pulled, user_proc)))

        def on_end(job):
            for engine, result in started:
                engine.stop(result.container)
                engine.remove(result.container)
            request.status = job.state.value.capitalize()
            self.api.update(self.KIND, request)
            self.stats["completed"] += 1
            self.request_events.fire()

        job = self.wlm.submit(
            JobSpec(
                name=f"bridge-{request.metadata.name}",
                user_uid=request.user_uid,
                nodes=request.nodes,
                cores_per_node=request.cores_per_node,
                gpus_per_node=request.gpus_per_node,
                duration=request.duration,
                exclusive=False,
                on_start=on_start,
                on_end=on_end,
            )
        )
        job.comment = f"bridge-operator:{request.metadata.namespace}/{request.metadata.name}"
        request.wlm_job_id = job.job_id
        request.status = "Submitted"
        self.stats["submitted"] += 1
        self.request_events.fire()
