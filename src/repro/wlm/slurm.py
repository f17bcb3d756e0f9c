"""The Slurm-like workload manager controller.

Runs as a discrete-event process: submissions kick the scheduler, jobs
occupy nodes for their (virtual) duration, allocations set up cgroups,
device grants, and per-node user processes, and completed jobs land in
accounting.  Service jobs (``duration=None``) run until cancelled — the
§6 scenarios use them to host kubelets inside allocations.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.cluster.node import HostNode
from repro.faults.injector import injector as _faults
from repro.kernel.cgroups import Controller
from repro.kernel.process import SimProcess
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Environment, Interrupt, Signal
from repro.wlm.accounting import AccountingDB
from repro.wlm.jobs import Job, JobSpec, JobState, JobStep
from repro.wlm.nodes import NodeState, WLMNode
from repro.wlm.scheduler import BackfillScheduler, CompletionCalendar
from repro.wlm.spank import SpankContext, SpankStack


class WLMError(RuntimeError):
    pass


class SlurmController:
    """The central daemon: queue, scheduler, allocations, accounting."""

    #: overhead for setting up one node of an allocation (cgroups, prolog)
    node_setup_cost = 0.3
    #: scheduler pass latency
    sched_latency = 0.05

    def __init__(
        self,
        env: Environment,
        hosts: _t.Sequence[HostNode],
        partition: str = "batch",
        backfill: bool = True,
        preemption: bool = False,
    ):
        #: PreemptMode=REQUEUE: a higher-priority job may requeue running
        #: lower-priority jobs when it cannot otherwise be placed (§6)
        self.preemption = preemption
        self.env = env
        self.nodes = [WLMNode(h, partition) for h in hosts]
        self.partition = partition
        self.scheduler = BackfillScheduler(backfill=backfill)
        #: projected end times of running jobs; feeds the scheduler's
        #: shadow-time lookup
        self._calendar = CompletionCalendar()
        self.accounting = AccountingDB()
        self.spank = SpankStack()
        self.queue: list[Job] = []
        self.running: dict[int, Job] = {}
        self._jobs: dict[int, Job] = {}
        self._job_counter = itertools.count(1)
        self._step_counter = itertools.count(0)
        # Latching signal == the recreate-an-event "bell" pattern: rings
        # while a pass is in flight coalesce into the next wait().
        self._bell = Signal(env, latch=True)
        #: fired on every job state transition (tickless status mirrors
        #: park on this instead of polling squeue)
        self.job_state = Signal(env)
        self._busy_integral = 0.0
        self._busy_nodes = 0
        self._last_change = env.now
        if _faults.enabled:
            _faults.register("wlm.node", self._on_node_fault)
        env.process(self._scheduler_loop(), name="slurmctld")

    # ------------------------------------------------------------- submission
    def submit(self, spec: JobSpec) -> Job:
        """Queue a job (sbatch) and kick the scheduler.

        Returns the pending :class:`~repro.wlm.jobs.Job` immediately;
        placement happens asynchronously on the next scheduler pass.
        Raises :class:`WLMError` if the spec can never be satisfied by
        this partition (zero nodes, or more nodes than exist).
        """
        if spec.nodes < 1:
            raise WLMError("a job needs at least one node")
        if spec.nodes > len(self.nodes):
            raise WLMError(
                f"job wants {spec.nodes} nodes, partition has {len(self.nodes)}"
            )
        job = Job(next(self._job_counter), spec, submit_time=self.env.now)
        self._jobs[job.job_id] = job
        self.queue.append(job)
        self._ring()
        self.job_state.fire(job)
        return job

    def cancel(self, job: Job) -> None:
        """scancel: dequeue a pending job or interrupt a running one.

        Running jobs go through the normal teardown path (nodes
        released, accounting recorded) with state CANCELLED; terminal
        jobs are left untouched.
        """
        if job.state is JobState.PENDING:
            self.queue.remove(job)
            job.set_state(JobState.CANCELLED, self.env.now)
            self.job_state.fire(job)
        elif job.state is JobState.RUNNING:
            proc = getattr(job, "_sim_process", None)
            if proc is not None and proc.is_alive:
                proc.interrupt(cause="scancel")
        # terminal states: no-op

    def job(self, job_id: int) -> Job:
        return self._jobs[job_id]

    # ------------------------------------------------------------- scheduling
    def _ring(self) -> None:
        self._bell.fire()

    def _scheduler_loop(self):
        while True:
            yield self._bell.wait()
            yield self.env.timeout(self.sched_latency)
            decisions = self.scheduler.schedule(
                self.queue, self.nodes, self.env.now, self._calendar
            )
            if _trace.tracer.enabled:
                # The pass's think time elapsed just before the decision.
                _trace.tracer.complete_at(
                    "wlm.schedule_pass",
                    self.env.now - self.sched_latency,
                    self.sched_latency,
                    queued=len(self.queue),
                    started=len(decisions),
                )
            if _metrics.registry.enabled:
                _metrics.inc("wlm.schedule_passes")
                _metrics.inc("wlm.jobs_started", len(decisions))
            for job, placement in decisions:
                self.queue.remove(job)
                _trace.tracer.instant(
                    "wlm.job_start", job=job.job_id, nodes=len(placement)
                )
                self.env.process(self._run_job(job, placement), name=f"job-{job.job_id}")
            if self.preemption and self.queue:
                self._try_preempt()

    def _try_preempt(self) -> None:
        """Requeue lower-priority running jobs to place the queue head."""
        head = max(self.queue, key=lambda j: (j.spec.priority, -j.job_id))
        victims = sorted(
            (j for j in self.running.values() if j.spec.priority < head.spec.priority),
            key=lambda j: j.spec.priority,
        )
        if not victims:
            return
        free = sum(1 for n in self.nodes if not n.allocations
                   and n.partition == head.spec.partition)
        to_requeue = []
        freed = 0
        for victim in victims:
            if free + freed >= head.spec.nodes:
                break
            to_requeue.append(victim)
            freed += len(victim.allocated_nodes)
        if free + freed < head.spec.nodes:
            return  # preempting would not be enough; leave everyone alone
        for victim in to_requeue:
            proc = getattr(victim, "_sim_process", None)
            if proc is not None and proc.is_alive:
                proc.interrupt(cause="preemption")

    def _account_busy(self, delta_nodes: int) -> None:
        now = self.env.now
        self._busy_integral += self._busy_nodes * (now - self._last_change)
        self._busy_nodes += delta_nodes
        self._last_change = now

    # ------------------------------------------------------------- job lifecycle
    def _run_job(self, job: Job, placement: list[WLMNode]):
        spec = job.spec
        job._sim_process = self.env.active_process  # type: ignore[attr-defined]
        for node in placement:
            node.allocate(job.job_id, spec.cores_per_node or node.total_cores)
        job.allocated_nodes = [n.name for n in placement]
        self.running[job.job_id] = job
        self._account_busy(len(placement))

        # Per-node setup: cgroup, user process, device grants, delegation.
        with _trace.span("wlm.allocation_setup", job=job.job_id, nodes=len(placement)):
            yield self.env.timeout(self.node_setup_cost)
        for node in placement:
            kernel = node.host.kernel
            cg_path = f"/slurm/uid_{spec.user_uid}/job_{job.job_id}"
            cg = kernel.cgroups.create(cg_path)
            cores = spec.cores_per_node or node.total_cores
            kernel.cgroups.set_limit(cg_path, Controller.CPU, float(cores))
            user_proc = kernel.spawn(parent=kernel.init, uid=spec.user_uid,
                                     argv=("slurmstepd", spec.name))
            kernel.cgroups.attach(cg_path, user_proc.pid)
            if kernel.config.cgroup_version == 2 and kernel.config.cgroup_delegation:
                kernel.cgroups.delegate(cg_path, uid=spec.user_uid)
            for gpu in node.host.gpus[: spec.gpus_per_node]:
                kernel.grant_device(user_proc, gpu.device_node)
            job.node_procs[node.name] = user_proc

        job.start_time = self.env.now
        self._calendar.add(job.job_id, self.env.now + spec.time_limit)
        job.set_state(JobState.RUNNING, self.env.now)
        if spec.on_start is not None:
            for node in placement:
                spec.on_start(node, job, job.node_procs[node.name])
        self.job_state.fire(job)

        # Payload.
        final_state = JobState.COMPLETED
        requeue_cause: str | None = None
        try:
            if getattr(job, "_node_failed", False):
                # The crash landed inside the allocation-setup window,
                # before the payload could be interrupted.
                raise Interrupt(cause="node_fail")
            if spec.duration is None:
                yield self.env.timeout(spec.time_limit)
                final_state = JobState.TIMEOUT
            else:
                run_for = min(spec.duration, spec.time_limit)
                yield self.env.timeout(run_for)
                if spec.duration > spec.time_limit:
                    final_state = JobState.TIMEOUT
        except Interrupt as intr:
            if intr.cause == "preemption":
                requeue_cause = "preemption"
            elif intr.cause == "node_fail":
                if spec.requeue:
                    requeue_cause = "node_fail"
                else:
                    final_state = JobState.NODE_FAIL
            else:
                final_state = JobState.CANCELLED

        if requeue_cause is not None:
            # PreemptMode=REQUEUE / JobRequeue=1: release nodes, go back
            # to PENDING; the job restarts from scratch on its next
            # allocation.  A DOWN node keeps its state through release().
            job._node_failed = False  # type: ignore[attr-defined]
            if requeue_cause == "node_fail":
                job.set_state(JobState.NODE_FAIL, self.env.now)
                job.requeue_count += 1
            else:
                job.preempt_count = getattr(job, "preempt_count", 0) + 1
            if _metrics.registry.enabled:
                _metrics.inc("wlm.job_requeues", cause=requeue_cause)
            if spec.on_requeue is not None:
                spec.on_requeue(job)
            for node in placement:
                node.release(job.job_id)
            self.running.pop(job.job_id, None)
            self._calendar.remove(job.job_id)
            self._account_busy(-len(placement))
            job.start_time = None
            job.allocated_nodes = []
            job.node_procs.clear()
            job.set_state(JobState.PENDING, self.env.now)
            self.queue.append(job)
            self._ring()
            self.job_state.fire(job)
            return

        # Teardown.
        job.end_time = self.env.now
        _trace.tracer.instant("wlm.job_end", job=job.job_id, state=final_state.value)
        if _metrics.registry.enabled:
            _metrics.inc("wlm.jobs_finished", state=final_state.value)
        job.set_state(final_state, self.env.now)
        job.exit_code = 0 if final_state is JobState.COMPLETED else 1
        for node in placement:
            node.release(job.job_id)
        self.running.pop(job.job_id, None)
        self._calendar.remove(job.job_id)
        self._account_busy(-len(placement))
        cores = spec.cores_per_node or placement[0].total_cores
        self.accounting.record_job(job, cores_per_node=cores,
                                   comment=getattr(job, "comment", ""))
        if spec.on_end is not None:
            spec.on_end(job)
        self._ring()
        self.job_state.fire(job)

    # ------------------------------------------------------------- job steps
    def srun(self, job: Job, argv: tuple[str, ...], options: dict[str, str] | None = None) -> JobStep:
        """Launch a step on every node of a running allocation, passing it
        through the SPANK stack (container plugins hook in here)."""
        if job.state is not JobState.RUNNING:
            raise WLMError(f"job {job.job_id} is not running ({job.state.value})")
        step = JobStep(
            step_id=next(self._step_counter),
            argv=argv,
            nodes=list(job.allocated_nodes),
            start_time=self.env.now,
        )
        contexts = []
        for node in self.nodes:
            if node.name not in job.allocated_nodes:
                continue
            ctx = SpankContext(
                job=job,
                node=node,
                user_proc=job.node_procs[node.name],
                options=dict(options or {}),
            )
            self.spank.run_task_init_privileged(ctx)
            self.spank.run_task_init(ctx)
            contexts.append(ctx)
        step.contexts = contexts  # type: ignore[attr-defined]
        job.steps.append(step)
        return step

    def finish_step(self, job: Job, step: JobStep, exit_code: int = 0) -> None:
        step.end_time = self.env.now
        step.exit_code = exit_code
        for ctx in getattr(step, "contexts", []):
            self.spank.run_task_exit(ctx)

    # ------------------------------------------------------------- node admin
    def _named(self, names: _t.Iterable[str]) -> list[WLMNode]:
        by_name = {n.name: n for n in self.nodes}
        return [by_name[name] for name in names]

    def drain_nodes(self, names: _t.Iterable[str], reason: str = "") -> None:
        for node in self._named(names):
            node.drain(reason)

    def resume_nodes(self, names: _t.Iterable[str]) -> None:
        for node in self._named(names):
            node.resume()
        self._ring()

    # ------------------------------------------------------------- node failure
    def fail_node(self, name: str, reason: str = "node failure") -> None:
        """Hard-down ``name`` and interrupt every job allocated there.

        Jobs with ``spec.requeue`` (the default) transition
        RUNNING -> NODE_FAIL -> PENDING and rejoin the queue; the dead
        node stays DOWN (and unschedulable) until :meth:`restore_node`.
        """
        node = self._named([name])[0]
        node.fail(reason)
        if _metrics.registry.enabled:
            _metrics.inc("wlm.node_failures", node=name)
        if _trace.tracer.enabled:
            _trace.tracer.instant("wlm.node_fail", node=name, reason=reason)
        for job in list(self.running.values()):
            if name not in job.allocated_nodes:
                continue
            proc = getattr(job, "_sim_process", None)
            if job.state is JobState.RUNNING and proc is not None and proc.is_alive:
                proc.interrupt(cause="node_fail")
            else:
                # Allocation still in setup; the payload checks this flag
                # before its first yield.
                job._node_failed = True  # type: ignore[attr-defined]

    def restore_node(self, name: str) -> None:
        """Bring a DOWN node back (reboot finished) and kick the scheduler."""
        node = self._named([name])[0]
        if node.state is NodeState.DOWN:
            node.resume()
            if _trace.tracer.enabled:
                _trace.tracer.instant("wlm.node_restore", node=name)
            self._ring()

    def _on_node_fault(self, event, phase: str) -> None:
        """Push handler for ``"wlm.node"`` faults from the injector."""
        if event.target is None or event.target not in {n.name for n in self.nodes}:
            return
        if phase == "crash":
            self.fail_node(event.target, reason=f"injected crash (t={event.at:.1f})")
        else:
            self.restore_node(event.target)

    # ------------------------------------------------------------- views
    def sinfo(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.state.value] = counts.get(node.state.value, 0) + 1
        return counts

    def squeue(self) -> list[Job]:
        return sorted(
            [*self.queue, *self.running.values()], key=lambda j: j.job_id
        )

    def utilization(self) -> float:
        """Time-averaged fraction of nodes allocated."""
        now = self.env.now
        integral = self._busy_integral + self._busy_nodes * (now - self._last_change)
        total = len(self.nodes) * now
        return integral / total if total > 0 else 0.0
