"""Free-capacity placement index for fleet-scale scheduling.

A scheduler placing one container start needs "the node with the least
free capacity that still fits the request" (best-fit keeps big holes
open for big requests; ties break toward the lowest node id so results
are reproducible).  A linear scan answers that in O(nodes) — fine at
the §6 scenarios' 4–100 nodes, ruinous at the fleet scenario's 10k+
nodes where it turns 1M placements into 10^10 comparisons.

:class:`CapacityIndex` answers the same query in O(log nodes): one
lazy-deleted min-heap of node ids per free-capacity level.  Because
per-node capacity is a small integer (cores), there are at most
``node_cpus`` levels; best-fit is "first non-empty valid bucket at or
above the request", and the heap root is the lowest node id at that
level.  Entries are never removed eagerly — a node's entry in a bucket
is valid only while its current free capacity equals the bucket level,
and stale entries are discarded when popped — so every operation is a
constant number of heap pushes/pops.

The index understands **down nodes** (the fleet chaos path):
:meth:`~CapacityIndex.remove_node` takes a node out of the pool — its
free capacity drops to zero, so the allocator will never pick it — and
:meth:`~CapacityIndex.restore_node` returns it fully free.  The caller
owns the slots that were running on the node when it crashed
(they are killed, not released), so removal never calls ``release``;
restoration recreates the node's full capacity in one step.  The
``down`` set is part of the leak-audit surface: a clean run ends with
it empty.

A saturated fleet asks for cores it does not have far more often than
it places: the index keeps an upper bound on the largest free capacity
of any node.  A failed alloc of ``req`` proves every node has less, so
the bound drops to ``req - 1``; a release raises it to the released
node's new level, a restore to ``cap``; allocs and removals only lower
free capacity, so they leave it a valid bound.  A request above the
bound (``max_free``, public so callers may test it first) is refused in O(1).

A saturated fleet also frees cores far more often than it can use them:
most completions find a queue whose head fits nowhere.  A caller that
can guarantee that no other up node has ``head`` free cores (the fleet
pump's queue head: every drain ends on a refusal, and arrivals and
crashes only take cores away) passes the head's request to
:meth:`~CapacityIndex.release`.  The released node is then the head's
only possible fit, so best-fit would pick it: the release claims the
head's cores there when they fit (the hand-off), and otherwise nothing
fits anywhere, so the bound drops to ``head - 1`` unless it was already
lower, as the failed scan it replaces would have dropped it.  Either
way no other bucket is touched.

``tests/oracles/capacity.py`` keeps an O(nodes) linear scan with the
identical policy; property tests hold every placement decision of the
index equal to it.
"""

from __future__ import annotations

from heapq import heappop, heappush


class CapacityIndex:
    """Bucketed lazy-deletion best-fit index over per-node free cores."""

    __slots__ = ("free", "cap", "_buckets", "down", "max_free")

    def __init__(self, n_nodes: int, node_cpus: int):
        self.cap = int(node_cpus)
        self.free = [self.cap] * int(n_nodes)
        #: _buckets[c] is a min-heap of node ids whose free capacity was
        #: c when pushed; an entry is valid iff free[node] == c still.
        self._buckets: list[list[int]] = [[] for _ in range(self.cap + 1)]
        # every node starts fully free: ascending range is a valid heap
        self._buckets[self.cap].extend(range(int(n_nodes)))
        #: node ids currently crashed (zero free capacity, never picked)
        self.down: set[int] = set()
        #: upper bound on any node's free cores: ``alloc(req > max_free)`` is None
        self.max_free = self.cap

    def alloc(self, req: int) -> int | None:
        """Claim ``req`` cores on the best-fitting node (lowest id on
        ties); returns the node id, or None when nothing fits."""
        if req > self.max_free:
            return None
        free = self.free
        buckets = self._buckets
        for level in range(req, self.cap + 1):
            heap = buckets[level]
            while heap:
                node = heap[0]
                if free[node] != level:
                    heappop(heap)  # stale: node moved levels since push
                    continue
                heappop(heap)
                remaining = level - req
                free[node] = remaining
                if remaining:
                    heappush(buckets[remaining], node)
                return node
        self.max_free = req - 1
        return None

    def release(self, node: int, req: int, head: int = 0) -> bool:
        """Return ``req`` cores to ``node``.

        A nonzero ``head`` is the queue head's request, under the
        precondition that no other up node has ``head`` free cores.
        Then ``node`` is the only possible fit: the head's cores are
        claimed there when they fit (returns True, the node ``alloc``
        would pick), and otherwise nothing fits anywhere, so the bound
        drops below ``head`` as a failed ``alloc`` would drop it."""
        remaining = self.free[node] + req
        handed = False
        if head:
            if remaining >= head:
                remaining -= head
                handed = True
            elif self.max_free >= head:
                self.max_free = head - 1
        self.free[node] = remaining
        if remaining:
            heappush(self._buckets[remaining], node)
            if remaining > self.max_free:
                self.max_free = remaining
        return handed

    def remove_node(self, node: int) -> int:
        """Crash ``node``: setting its free capacity to zero invalidates
        every bucket entry it may have (level 0 has no bucket), so the
        lazy-deletion check discards them on pop.  Returns the cores
        that were free at removal; no-op when already down."""
        if node in self.down:
            return 0
        self.down.add(node)
        freed = self.free[node]
        self.free[node] = 0
        return freed

    def restore_node(self, node: int) -> None:
        """Reboot ``node`` fully free and re-index it at the top level."""
        if node not in self.down:
            return
        self.down.discard(node)
        self.free[node] = self.cap
        heappush(self._buckets[self.cap], node)
        self.max_free = self.cap

    @property
    def total_free(self) -> int:
        return sum(self.free)
