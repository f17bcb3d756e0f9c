"""§6.4 (first modality) — the Kubernetes 'Bridge' operator.

Kubernetes schedules *external* WLM resources through a custom resource:
full accounting, but "the drawback of this approach is the required
explicit formulation in the resource description" — users rewrite their
workflows from Pods into WLMJobRequests.
"""

from __future__ import annotations

import typing as _t

from repro.k8s.k3s import K3sServer
from repro.k8s.objects import ObjectMeta, Pod
from repro.k8s.operators import BridgeOperator, WLMJobRequest
from repro.scenarios.base import WORKFLOW_IMAGE, IntegrationScenario
from repro.sim import Environment
from repro.sim.signal import count_skipped_ticks, next_tick
from repro.wlm.slurm import SlurmController


class BridgeOperatorScenario(IntegrationScenario):
    name = "bridge-operator"
    section = "§6.4a"
    workflow_transparency = False   # explicit WLMJobRequest reformulation
    standard_pod_environment = False  # work runs as WLM jobs, not pods
    isolation = "wlm-job-per-request"

    def __init__(self, env: Environment, n_nodes: int = 4, seed: int = 0):
        super().__init__(env, n_nodes, seed)
        self.wlm = SlurmController(env, self.hosts)
        self.k8s = K3sServer(env)  # persistent service control plane
        self.operator: BridgeOperator | None = None
        self._requests: list[WLMJobRequest] = []

    def provision(self):
        def ready(env):
            yield self.k8s.ready
            self.operator = BridgeOperator(
                env, self.k8s.api, self.wlm, engines=self.engines, registry=self.registry
            )
            self.provisioned_at = env.now
            return env.now

        return self.env.process(ready(self.env), name="provision-6.4a")

    def submit(self, pods: _t.Sequence[Pod]) -> None:
        """The explicit-reformulation step the paper criticizes: each pod
        must be hand-translated into a WLMJobRequest by the user."""
        assert self.operator is not None, "provision first"
        for pod in pods:
            pod._submitted_at = self.env.now  # type: ignore[attr-defined]
            self.pods.append(pod)
            request = WLMJobRequest(
                metadata=ObjectMeta(name=f"req-{pod.metadata.name}"),
                nodes=1,
                user_uid=pod.spec.user_uid,
                duration=pod.spec.duration or 60.0,
                cores_per_node=int(pod.spec.total_requests().cpu) or 1,
                image=pod.spec.containers[0].image,
            )
            request._pod = pod  # type: ignore[attr-defined]
            self._requests.append(request)
            self.k8s.api.create(BridgeOperator.KIND, request)
            self.env.process(self._mirror_status(request, pod))

    def _mirror_status(self, request: WLMJobRequest, pod: Pod):
        """Reflect job progress back onto the pod record for comparison.

        Tickless: instead of polling the CRD and squeue on fixed grids,
        the mirror parks on the operator's `request_events` and the WLM's
        `job_state` signals.  The mirrored values are exact copies of job
        fields (never poll-tick times), so going event-driven changes no
        observable result — only the thousands of idle polls, tallied in
        ``poll_ticks_skipped`` against the grids the spinner would have
        walked.
        """
        from repro.k8s.objects import PodPhase

        assert self.operator is not None
        request_events = self.operator.request_events
        while request.wlm_job_id is None:
            token = request_events.park()
            yield token
            request_events.unpark(token)
        job = self.wlm.job(request.wlm_job_id)
        job_state = self.wlm.job_state
        epoch = self.env.now
        waited = False
        while job.start_time is None:
            waited = True
            token = job_state.park()
            yield token
            job_state.unpark(token)
        if waited:
            epoch, skipped = next_tick(epoch, 0.5, self.env.now)
            count_skipped_ticks(self.env, skipped + 1)
        pod.phase = PodPhase.RUNNING
        pod.start_time = job.start_time
        waited = False
        while not job.state.is_terminal:
            waited = True
            token = job_state.park()
            yield token
            job_state.unpark(token)
        if waited:
            _, skipped = next_tick(epoch, 1.0, self.env.now)
            count_skipped_ticks(self.env, skipped + 1)
        pod.end_time = job.end_time
        pod.phase = PodPhase.SUCCEEDED if job.exit_code == 0 else PodPhase.FAILED

    def _accounted_cpu_seconds(self) -> float:
        records = self.wlm.accounting.by_comment_prefix("bridge-operator:")
        return sum(r.cpu_seconds for r in records)
