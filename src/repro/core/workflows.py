"""Container workflows: dependency DAGs of containerized steps.

§2's motivating use case — bioinformatics/data-science "complex data
processing pipelines" whose steps have "sometimes competing build and
runtime environment requirements", each wrapped in its own container.
Steps run on a WLM via any engine, or as Kubernetes pods via a scenario.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.engines.base import ContainerEngine
from repro.oci.image import ImageReference
from repro.registry.distribution import OCIDistributionRegistry
from repro.sim import Environment
from repro.wlm.jobs import JobSpec
from repro.wlm.slurm import SlurmController


class WorkflowError(RuntimeError):
    pass


@dataclasses.dataclass
class WorkflowStep:
    name: str
    image: str
    duration: float = 60.0
    cores: int = 4
    gpus: int = 0
    after: tuple[str, ...] = ()
    #: filled during execution
    job_id: int | None = None
    started_at: float | None = None
    finished_at: float | None = None


class Workflow:
    """A DAG of containerized steps (a Nextflow/Snakemake stand-in)."""

    def __init__(self, name: str, steps: _t.Sequence[WorkflowStep], user_uid: int = 1000):
        self.name = name
        self.steps = {s.name: s for s in steps}
        self.user_uid = user_uid
        if len(self.steps) != len(steps):
            raise WorkflowError("duplicate step names")
        for step in steps:
            for dep in step.after:
                if dep not in self.steps:
                    raise WorkflowError(f"step {step.name!r} depends on unknown {dep!r}")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.steps)
        for step in self.steps.values():
            for dep in step.after:
                graph.add_edge(dep, step.name)
        if not nx.is_directed_acyclic_graph(graph):
            raise WorkflowError(f"workflow {self.name!r} has a dependency cycle")
        self._graph = graph

    def topological_batches(self) -> list[list[str]]:
        """Steps grouped by dependency depth (each batch parallelizable)."""
        import networkx as nx

        return [sorted(gen) for gen in nx.topological_generations(self._graph)]

    # -- execution on a WLM ---------------------------------------------------------
    def run_on_wlm(
        self,
        env: Environment,
        wlm: SlurmController,
        engines: dict[str, ContainerEngine],
        registry: OCIDistributionRegistry,
    ):
        """Submit the DAG respecting dependencies; returns the sim process
        (its value is the makespan)."""

        def _driver():
            start = env.now
            for batch in self.topological_batches():
                jobs = []
                for step_name in batch:
                    step = self.steps[step_name]
                    jobs.append((step, self._submit_step(env, wlm, engines, registry, step)))
                # barrier: wait for the whole batch
                for step, job in jobs:
                    while not job.state.is_terminal:
                        yield env.sleep(1.0)
                    if job.exit_code != 0:
                        raise WorkflowError(f"step {step.name!r} failed ({job.state.value})")
                    step.finished_at = job.end_time
            return env.now - start

        return env.process(_driver(), name=f"workflow-{self.name}")

    # -- execution on Kubernetes (via a §6 scenario's API server) ----------------------
    def run_on_k8s(self, env: Environment, apiserver, namespace: str = "default",
                   submit_fn=None):
        """Submit the DAG as pods against a Kubernetes API server (e.g. a
        §6.5 scenario's K3s); dependencies gate each batch on the previous
        batch's pod completion.  ``submit_fn(pod)`` overrides plain
        apiserver creation (scenarios inject selectors there)."""
        from repro.k8s.objects import ContainerSpec, ObjectMeta, Pod, PodPhase, PodSpec, ResourceRequests

        def _driver():
            start = env.now
            for batch in self.topological_batches():
                pods = []
                for step_name in batch:
                    step = self.steps[step_name]
                    pod = Pod(
                        metadata=ObjectMeta(name=f"{self.name}-{step.name}", namespace=namespace),
                        spec=PodSpec(
                            containers=[ContainerSpec(
                                name=step.name, image=step.image,
                                resources=ResourceRequests(cpu=step.cores, gpu=step.gpus),
                            )],
                            user_uid=self.user_uid,
                            duration=step.duration,
                        ),
                    )
                    if submit_fn is not None:
                        submit_fn(pod)
                    else:
                        apiserver.create("Pod", pod)
                    pods.append((step, pod))
                for step, pod in pods:
                    while pod.phase not in (PodPhase.SUCCEEDED, PodPhase.FAILED):
                        yield env.sleep(1.0)
                    if pod.phase is PodPhase.FAILED:
                        raise WorkflowError(f"step {step.name!r} failed: {pod.message}")
                    step.started_at = pod.start_time
                    step.finished_at = pod.end_time
            return env.now - start

        return env.process(_driver(), name=f"workflow-{self.name}-k8s")

    def _submit_step(self, env, wlm, engines, registry, step: WorkflowStep):
        ref = ImageReference.parse(step.image)
        #: (engine, result) per start of the step's job, requeues included
        started: list = []

        def on_start(node, job, user_proc):
            engine = engines[node.name]
            pulled = engine.pull(ref.repository, ref.tag, registry, now=env.now)
            started.append((engine, engine.run(pulled, user_proc)))
            step.started_at = env.now

        def on_end(job):
            for engine, result in started:
                engine.stop(result.container)
                engine.remove(result.container)

        job = wlm.submit(
            JobSpec(
                name=f"{self.name}.{step.name}",
                user_uid=self.user_uid,
                nodes=1,
                cores_per_node=step.cores,
                gpus_per_node=step.gpus,
                duration=step.duration,
                exclusive=False,
                on_start=on_start,
                on_end=on_end,
            )
        )
        job.comment = f"workflow:{self.name}/{step.name}"
        step.job_id = job.job_id
        return job
