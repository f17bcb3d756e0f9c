"""Linear backfill scheduling: the reference for ``BackfillScheduler``."""

from __future__ import annotations

import typing as _t

from repro.run import run
from repro.wlm.jobs import Job
from repro.wlm.nodes import NodeState, WLMNode
from repro.wlm.scheduler import BackfillScheduler, CompletionCalendar
from repro.wlm.slurm import SlurmController


def _fits(job: Job, nodes: list[WLMNode]) -> list[WLMNode] | None:
    """The first ``spec.nodes`` usable nodes in node-list order."""
    spec = job.spec
    usable = [
        n
        for n in nodes
        if n.partition == spec.partition
        and n.can_host(spec.cores_per_node or n.total_cores, spec.gpus_per_node, spec.exclusive)
    ]
    return usable[: spec.nodes] if len(usable) >= spec.nodes else None


class LinearBackfillScheduler(BackfillScheduler):
    """Scans the whole node list per job and sorts the running jobs'
    projected ends for every blocked head; ignores the calendar."""

    def __init__(self, controller: SlurmController, backfill: bool = True):
        super().__init__(backfill=backfill)
        self.controller = controller

    def schedule(
        self,
        queue: _t.Sequence[Job],
        nodes: list[WLMNode],
        now: float,
        calendar: CompletionCalendar,
    ) -> list[tuple[Job, list[WLMNode]]]:
        decisions: list[tuple[Job, list[WLMNode]]] = []
        pending = sorted(queue, key=lambda j: (-j.spec.priority, j.submit_time, j.job_id))
        blocked_at: float | None = None
        for job in pending:
            placement = _fits(job, nodes)
            if placement is None:
                if blocked_at is None:
                    blocked_at = self._scan_shadow_time(job, nodes, now)
                    if run.metrics.enabled:
                        run.metrics.inc("wlm.sched.head_blocked")
                continue
            if blocked_at is None or (
                self.backfill and now + job.spec.time_limit <= blocked_at
            ):
                if blocked_at is not None and run.metrics.enabled:
                    run.metrics.inc("wlm.backfill.starts")
                decisions.append((job, placement))
                for n in placement:
                    n.allocate(job.job_id, job.spec.cores_per_node or n.total_cores)
        for job, placement in decisions:
            for n in placement:
                n.release(job.job_id)
        return decisions

    def _scan_shadow_time(self, job: Job, nodes: list[WLMNode], now: float) -> float:
        idle = sum(
            1
            for n in nodes
            if n.partition == job.spec.partition and n.state is NodeState.IDLE
        )
        needed = job.spec.nodes - idle
        if needed <= 0:
            return now
        ends = sorted(
            r.start_time + r.spec.time_limit
            for r in self.controller.running.values()
            if r.start_time is not None
        )
        return ends[needed - 1] if needed <= len(ends) else float("inf")


class LinearSlurmController(SlurmController):
    """A controller whose every pass runs :class:`LinearBackfillScheduler`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduler = LinearBackfillScheduler(self, backfill=self.scheduler.backfill)
