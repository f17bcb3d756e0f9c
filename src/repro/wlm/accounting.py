"""Job accounting (sacct).

Accounting fidelity is the WLM's trump card in the Kubernetes
integration debate (§6: "particularly crucial in regards to the
accounting of used resources") — scenarios are scored on whether
container workloads show up here.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.wlm.jobs import Job, JobState


@dataclasses.dataclass(frozen=True)
class AccountingRecord:
    job_id: int
    job_name: str
    user_uid: int
    partition: str
    nodes: int
    state: str
    submit_time: float
    start_time: float | None
    end_time: float | None
    elapsed: float
    cpu_seconds: float
    gpu_seconds: float
    #: free-form payload attribution (e.g. "kubernetes-pod:<name>")
    comment: str = ""


class AccountingDB:
    """sacct-style job accounting store."""

    def __init__(self) -> None:
        self._records: list[AccountingRecord] = []

    def record_job(self, job: Job, cores_per_node: int, comment: str = "") -> AccountingRecord:
        if job.start_time is None or job.end_time is None:
            raise ValueError(f"job {job.job_id} has not finished; cannot account")
        elapsed = job.end_time - job.start_time
        record = AccountingRecord(
            job_id=job.job_id,
            job_name=job.spec.name,
            user_uid=job.spec.user_uid,
            partition=job.spec.partition,
            nodes=len(job.allocated_nodes),
            state=job.state.value,
            submit_time=job.submit_time,
            start_time=job.start_time,
            end_time=job.end_time,
            elapsed=elapsed,
            cpu_seconds=elapsed * cores_per_node * len(job.allocated_nodes),
            gpu_seconds=elapsed * job.spec.gpus_per_node * len(job.allocated_nodes),
            comment=comment,
        )
        self._records.append(record)
        return record

    # -- queries -------------------------------------------------------------
    def all(self) -> list[AccountingRecord]:
        return list(self._records)

    def for_user(self, uid: int) -> list[AccountingRecord]:
        return [r for r in self._records if r.user_uid == uid]

    def total_cpu_seconds(self, uid: int | None = None) -> float:
        return sum(r.cpu_seconds for r in self._records if uid is None or r.user_uid == uid)

    def by_comment_prefix(self, prefix: str) -> list[AccountingRecord]:
        return [r for r in self._records if r.comment.startswith(prefix)]

    def __len__(self) -> int:
        return len(self._records)
