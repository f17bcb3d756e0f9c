"""FIFO + conservative backfill scheduling.

Each pass builds an availability index over the node list (position-
ordered lazy-deletion heaps bucketed by free cores, plus a full-free
heap for exclusive/whole-node requests), so a feasibility query costs
O(matches · log nodes).  A blocked head's shadow time is one read of
the controller's :class:`CompletionCalendar` (maintained at job start
and end) instead of a sort over the running jobs.

``tests/oracles/wlm.py`` keeps the linear scheduler — a whole-node-list
scan per job and a shadow time sorted from the running jobs — and
``tests/wlm/test_backfill_index.py`` holds every placement, in node-list
position order, equal to it by property test.
"""

from __future__ import annotations

import bisect
import heapq
import typing as _t

from repro.run import run
from repro.wlm.jobs import Job, JobSpec
from repro.wlm.nodes import NodeState, WLMNode

#: rejected-candidate pops beyond which a query counts as a linear
#: fallback (the index stopped short-circuiting)
_FALLBACK_POPS = 32


class CompletionCalendar:
    """Sorted projected end times of running jobs.

    The controller adds a job when it starts (``start_time +
    time_limit``) and removes it on teardown or requeue, so a blocked
    head's shadow time is a single indexed read instead of an
    O(running log running) sort per scheduler pass.
    """

    __slots__ = ("_ends", "_by_job")

    def __init__(self) -> None:
        #: ascending (end_time, job_id) pairs
        self._ends: list[tuple[float, int]] = []
        self._by_job: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._ends)

    def add(self, job_id: int, end_time: float) -> None:
        self._by_job[job_id] = end_time
        bisect.insort(self._ends, (end_time, job_id))

    def remove(self, job_id: int) -> None:
        end_time = self._by_job.pop(job_id, None)
        if end_time is None:
            return
        i = bisect.bisect_left(self._ends, (end_time, job_id))
        if i < len(self._ends) and self._ends[i] == (end_time, job_id):
            del self._ends[i]

    def kth_end(self, k: int) -> float:
        """The ``k``-th (0-based) earliest projected end."""
        return self._ends[k][0]


class _AvailabilityIndex:
    """Per-pass snapshot index over a node list.

    Buckets node *positions* by current free cores (plus a full-free
    heap for whole-node/exclusive queries) with lazy deletion: a
    mutation bumps the position's sequence number and pushes a fresh
    entry, stale entries are discarded at pop.  Queries return
    candidates in ascending position — exactly the node-list order the
    linear scan uses — and every candidate is re-verified against the
    live node, so the index only has to be a superset.
    """

    __slots__ = ("nodes", "seq", "cap", "buckets", "full_free", "_idle", "_was_idle")

    def __init__(self, nodes: list[WLMNode]):
        self.nodes = nodes
        self.seq = [0] * len(nodes)
        self.cap = max((n.total_cores for n in nodes), default=0)
        # Built in position order, so each bucket list is ascending —
        # already a valid heap without heapify.
        buckets: list[list[tuple[int, int]]] = [[] for _ in range(self.cap + 1)]
        full_free: list[tuple[int, int]] = []
        idle: dict[str, int] = {}
        was_idle = [False] * len(nodes)
        for pos, node in enumerate(nodes):
            free = node.free_cores
            if 0 <= free <= self.cap:
                buckets[free].append((pos, 0))
            if free >= node.total_cores:
                full_free.append((pos, 0))
            if node.state is NodeState.IDLE:
                idle[node.partition] = idle.get(node.partition, 0) + 1
                was_idle[pos] = True
        self.buckets = buckets
        self.full_free = full_free
        self._idle = idle
        self._was_idle = was_idle

    def idle_count(self, partition: str) -> int:
        return self._idle.get(partition, 0)

    def touch(self, pos: int) -> None:
        """Re-index position ``pos`` after the caller mutated its node."""
        node = self.nodes[pos]
        seq = self.seq[pos] + 1
        self.seq[pos] = seq
        free = node.free_cores
        if 0 <= free <= self.cap:
            heapq.heappush(self.buckets[free], (pos, seq))
        if free >= node.total_cores:
            heapq.heappush(self.full_free, (pos, seq))
        is_idle = node.state is NodeState.IDLE
        if is_idle != self._was_idle[pos]:
            self._was_idle[pos] = is_idle
            self._idle[node.partition] = (
                self._idle.get(node.partition, 0) + (1 if is_idle else -1)
            )

    # -- queries -------------------------------------------------------------
    def place(self, spec: JobSpec) -> list[WLMNode] | None:
        """First ``spec.nodes`` usable nodes in position order, or None.

        Identical to the linear scan's ``usable[: spec.nodes]`` for
        every input: candidates stream in ascending position and each
        is verified with the same ``partition`` + ``can_host`` predicate.
        """
        nodes = self.nodes
        seqs = self.seq
        want = spec.nodes
        chosen: list[WLMNode] = []
        chosen_entries: list[tuple[int, tuple[int, int]]] = []
        rejected: list[tuple[int, tuple[int, int]]] = []
        whole_node = spec.exclusive or spec.cores_per_node is None

        if whole_node:
            heap = self.full_free
            while heap:
                entry = heap[0]
                pos, seq = entry
                if seqs[pos] != seq:
                    heapq.heappop(heap)
                    continue
                heapq.heappop(heap)
                node = nodes[pos]
                req = spec.cores_per_node or node.total_cores
                if node.partition == spec.partition and node.can_host(
                    req, spec.gpus_per_node, spec.exclusive
                ):
                    chosen.append(node)
                    chosen_entries.append((-1, entry))
                    if len(chosen) == want:
                        break
                else:
                    rejected.append((-1, entry))
        else:
            cores = spec.cores_per_node
            buckets = self.buckets
            # k-way merge of the level heaps >= cores, ascending position.
            merge: list[tuple[int, int, int]] = []
            for level in range(cores, self.cap + 1):
                h = buckets[level]
                while h and seqs[h[0][0]] != h[0][1]:
                    heapq.heappop(h)
                if h:
                    heapq.heappush(merge, (h[0][0], h[0][1], level))
            while merge:
                pos, seq, level = heapq.heappop(merge)
                h = buckets[level]
                heapq.heappop(h)
                while h and seqs[h[0][0]] != h[0][1]:
                    heapq.heappop(h)
                if h:
                    heapq.heappush(merge, (h[0][0], h[0][1], level))
                if seqs[pos] != seq:
                    continue
                node = nodes[pos]
                if node.partition == spec.partition and node.can_host(
                    cores, spec.gpus_per_node, spec.exclusive
                ):
                    chosen.append(node)
                    chosen_entries.append((level, (pos, seq)))
                    if len(chosen) == want:
                        break
                else:
                    rejected.append((level, (pos, seq)))

        counters = run.counters
        if counters.enabled:
            if len(rejected) > _FALLBACK_POPS:
                counters.sched_linear_fallbacks += 1
            elif len(chosen) == want:
                counters.sched_index_hits += 1

        # Rejected-but-live entries stay available for later jobs in
        # the same pass; a failed query also returns its candidates.
        restore = rejected if len(chosen) == want else rejected + chosen_entries
        for level, entry in restore:
            if level < 0:
                heapq.heappush(self.full_free, entry)
            else:
                heapq.heappush(self.buckets[level], entry)
        if len(chosen) == want:
            # Chosen entries are consumed: the caller allocates these
            # nodes and calls touch(), which pushes fresh entries.
            return chosen
        return None


class BackfillScheduler:
    """Priority-FIFO with backfill.

    The head-of-queue job reserves the earliest time enough nodes free
    up; later jobs may start now only if they fit on idle nodes *and*
    finish before that reservation (conservative backfill on declared
    time limits).
    """

    def __init__(self, backfill: bool = True):
        self.backfill = backfill

    def schedule(
        self,
        queue: _t.Sequence[Job],
        nodes: list[WLMNode],
        now: float,
        calendar: CompletionCalendar,
    ) -> list[tuple[Job, list[WLMNode]]]:
        """Return (job, nodes) placements to start now; ``calendar``
        holds the running jobs' projected ends."""
        decisions: list[tuple[Job, list[WLMNode]]] = []
        pending = sorted(
            queue, key=lambda j: (-j.spec.priority, j.submit_time, j.job_id)
        )
        if not pending:
            return decisions

        index = _AvailabilityIndex(nodes)
        positions: dict[int, int] | None = None

        blocked_at: float | None = None  # shadow time of the blocked head job
        for job in pending:
            placement = index.place(job.spec)
            if placement is None:
                if blocked_at is None:
                    blocked_at = self._shadow_time(job, now, calendar, index)
                    if blocked_at is None:
                        blocked_at = float("inf")
                    if run.metrics.enabled:
                        run.metrics.inc("wlm.sched.head_blocked")
                continue
            # The head of the (remaining) queue starts now; behind a
            # blocked head, a job backfills only if it finishes before
            # the reservation.
            if blocked_at is None or (
                self.backfill and now + job.spec.time_limit <= blocked_at
            ):
                if blocked_at is not None and run.metrics.enabled:
                    # A start *behind* a blocked head is a backfill win.
                    run.metrics.inc("wlm.backfill.starts")
                decisions.append((job, placement))
                for n in placement:
                    n.allocate(job.job_id, job.spec.cores_per_node or n.total_cores)
            # place() consumed the candidates' heap entries; re-index them
            # (allocated or not) so later jobs in this pass see them.
            if positions is None:
                positions = {id(n): pos for pos, n in enumerate(nodes)}
            for n in placement:
                index.touch(positions[id(n)])
        # Undo the tentative allocations; the controller re-applies them.
        for job, placement in decisions:
            for n in placement:
                n.release(job.job_id)
        return decisions

    @staticmethod
    def _shadow_time(
        job: Job,
        now: float,
        calendar: CompletionCalendar,
        index: _AvailabilityIndex,
    ) -> float | None:
        """Earliest time the blocked job could start, assuming running
        jobs end at their time limits."""
        needed = job.spec.nodes - index.idle_count(job.spec.partition)
        if needed <= 0:
            return now
        if needed > len(calendar):
            return None
        return calendar.kth_end(needed - 1)
