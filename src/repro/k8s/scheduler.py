"""The Kubernetes pod scheduler: filter → score → bind.

A pass places the pods of a pending queue fed from the Pod watch.  Node
picking reads a lazy-deletion min-heap of ``(ratio, name)`` entries (the
:mod:`repro.cluster.capacity` idiom applied to the least-allocated
score), so a pass costs O(pending · log nodes), not O(pods · nodes).

The pick is the minimum of ``(allocated.cpu / capacity.cpu, name)`` over
ready, selector-matching, fitting nodes.  ``tests/oracles/k8s.py`` keeps
a linear pass that scans every pod and node for that minimum, and
``tests/k8s/test_scheduler_index.py`` holds binds, timings and stats
equal to it by property test.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.k8s.apiserver import APIServer, WatchEvent, WatchEventType
from repro.k8s.objects import K8sNode, Pod, PodPhase
from repro.run import run
from repro.sim import Bell, Environment

#: rejected-candidate pops beyond which a pick counts as a linear
#: fallback (the index stopped short-circuiting for this query)
_FALLBACK_POPS = 32


class K8sScheduler:
    """Watch unbound pods; bind them to the least-loaded fitting node."""

    #: one scheduling pass latency
    pass_latency = 0.02

    def __init__(self, env: Environment, apiserver: APIServer):
        self.env = env
        self.api = apiserver
        self._bell = Bell(
            env, self.pass_latency, self._schedule_pass, name="kube-scheduler",
            idle=self._pass_is_empty,
        )
        self.stats = {"scheduled": 0, "unschedulable_events": 0}
        #: pending pods in store (ADDED) order; unschedulable pods stay
        self._pending: list[Pod] = []
        self._pending_uids: set[str] = set()
        #: lazy-deletion min-heap of (ratio, name, seq); an entry is live
        #: iff its seq matches _node_seq[name]
        self._heap: list[tuple[float, str, int]] = []
        self._node_seq: dict[str, int] = {}
        #: name -> (node, ratio) of the node's live heap entry, absent
        #: while the node has none (popped as a pick's winner, or never
        #: indexed)
        self._live: dict[str, tuple[K8sNode, float]] = {}
        #: interned per-node metric keys for the bind counter
        self._bind_keys: dict[str, tuple] = {}
        self._unsched_key = None
        # One Node watcher indexes and rings.  The existing nodes are
        # indexed without a ring: an extra empty pass would shift every
        # trace.
        apiserver.watch("Node", self._on_node_event, replay_existing=False)
        for node in apiserver.peek("Node"):
            self._index_node(node, WatchEventType.ADDED)
        apiserver.watch("Pod", self._on_pod_event, replay_existing=True)

    def _on_pod_event(self, event: WatchEvent) -> None:
        if event.type in (WatchEventType.ADDED, WatchEventType.MODIFIED):
            pod = event.obj
            if (
                isinstance(pod, Pod)
                and not pod.bound
                and pod.phase is PodPhase.PENDING
                and pod.metadata.uid not in self._pending_uids
            ):
                self._pending_uids.add(pod.metadata.uid)
                self._pending.append(pod)
                counters = run.counters
                if counters.enabled and len(self._pending) > counters.sched_pending_peak:
                    counters.sched_pending_peak = len(self._pending)
            self._bell.ring()

    def _on_node_event(self, event: WatchEvent) -> None:
        node = event.obj
        # One probe answers a heartbeat: the node's live entry is exact.
        # The ring stays, since an empty pass reserves the key a pod
        # created before it passes binds at.
        live = self._live.get(node.metadata.name)  # type: ignore[attr-defined]
        if (
            live is None
            or live[0] is not node
            or event.type is WatchEventType.DELETED
            or live[1] != node.allocated.cpu / max(node.capacity.cpu, 1e-9)  # type: ignore[attr-defined]
        ):
            self._index_node(node, event.type)
        self._bell.ring()

    def _index_node(self, node: object, type_: WatchEventType) -> None:
        """Re-key ``node``'s pick-index entry after a Node event that
        may have changed it."""
        if not isinstance(node, K8sNode):
            return
        name = node.metadata.name
        if type_ is WatchEventType.DELETED:
            self._node_seq.pop(name, None)
            self._live.pop(name, None)
            return
        ratio = node.allocated.cpu / max(node.capacity.cpu, 1e-9)
        seq = self._node_seq.get(name, 0) + 1
        self._node_seq[name] = seq
        self._live[name] = (node, ratio)
        heapq.heappush(self._heap, (ratio, name, seq))
        # Stale entries accumulate one per node update; compact before
        # the heap outgrows the live node set by a wide margin.
        if len(self._heap) > 64 + 4 * len(self._node_seq):
            self._compact_heap()

    def _compact_heap(self) -> None:
        seqs = self._node_seq
        self._heap = [e for e in self._heap if seqs.get(e[1]) == e[2]]
        heapq.heapify(self._heap)

    # -- one pass ------------------------------------------------------------------
    def _pass_is_empty(self) -> bool:
        """A pass now would bind nothing, count nothing and trace
        nothing, so the bell need not queue it (see ``Bell``)."""
        return not self._pending and not run.tracer.enabled

    def _schedule_pass(self) -> None:
        bound = self._bind_pending()
        if run.tracer.enabled:
            # The pass's think time elapsed just before this call (the
            # bell sleeps pass_latency, then decides) — replay it as one
            # slice so binds sit at the slice's end on the timeline.
            run.tracer.complete_at(
                "k8s.schedule_pass",
                self.env.now - self.pass_latency,
                self.pass_latency,
                bound=bound,
            )

    def _bind_pending(self) -> int:
        """Bind every pending pod that fits; returns the bind count."""
        bound = 0
        snapshot = self._pending
        # Appends during the pass (our own Pod updates re-enter the
        # watch synchronously, though the bound-pod predicate rejects
        # them) land in a fresh list and are folded back afterwards.
        self._pending = []
        still: list[Pod] = []
        #: request shapes that already failed this pass — free capacity
        #: only shrinks mid-pass, so an identical query cannot succeed
        failed_keys: set[tuple] = set()
        for pod in snapshot:
            if pod.bound or pod.phase is not PodPhase.PENDING:
                self._pending_uids.discard(pod.metadata.uid)
                continue
            target = self._pick_node(pod, failed_keys)
            if target is None:
                self._count_unschedulable()
                still.append(pod)
                continue
            self._pending_uids.discard(pod.metadata.uid)
            self._bind(pod, target)
            bound += 1
        self._pending = still + self._pending
        return bound

    def _bind(self, pod: Pod, target: K8sNode) -> None:
        req = pod.spec.total_requests()
        target.claim(req)
        pod.node_name = target.metadata.name
        self.api.update("Pod", pod)
        self.api.update("Node", target)
        self.stats["scheduled"] += 1
        run.tracer.instant(
            "k8s.bind", pod=pod.metadata.name, node=target.metadata.name
        )
        if run.metrics.enabled:
            name = target.metadata.name
            key = self._bind_keys.get(name)
            if key is None:
                key = self._bind_keys[name] = run.metrics.series_key(
                    "k8s.scheduler.binds", node=name
                )
            run.metrics.inc_series(key)

    def _count_unschedulable(self) -> None:
        self.stats["unschedulable_events"] += 1
        if run.metrics.enabled:
            if self._unsched_key is None:
                self._unsched_key = run.metrics.series_key(
                    "k8s.scheduler.unschedulable"
                )
            run.metrics.inc_series(self._unsched_key)

    # -- node picking --------------------------------------------------------------
    def _pick_node(self, pod: Pod, failed_keys: set[tuple]) -> K8sNode | None:
        req = pod.spec.total_requests()
        selector = pod.spec.node_selector
        shape = (req.cpu, req.memory, req.gpu, tuple(sorted(selector.items())))
        if shape in failed_keys:
            return None
        heap = self._heap
        seqs = self._node_seq
        live_entries = self._live
        rejected: list[tuple[float, str, int]] = []
        target: K8sNode | None = None
        while heap:
            entry = heap[0]
            ratio, name, seq = entry
            if seqs.get(name) != seq:
                heapq.heappop(heap)
                continue
            heapq.heappop(heap)
            node = live_entries[name][0]
            live = node.allocated.cpu / max(node.capacity.cpu, 1e-9)
            if live != ratio:
                # Node mutated without an apiserver update (tests poking
                # `allocated` directly): re-key under a fresh seq so the
                # heap order stays the true (ratio, name) order.
                seq = seqs[name] = seq + 1
                live_entries[name] = (node, live)
                heapq.heappush(heap, (live, name, seq))
                continue
            if (
                not node.condition.ready
                or (selector and any(
                    node.metadata.labels.get(k) != v for k, v in selector.items()
                ))
                or not node.fits(req)
            ):
                rejected.append(entry)
                continue
            target = node
            # its entry is off the heap until the bind's Node update
            del live_entries[name]
            break
        for entry in rejected:
            heapq.heappush(heap, entry)
        # The winner's entry is not pushed back: the caller's claim +
        # Node update re-enters _on_node_event, which pushes the
        # fresh (ratio, name, seq+1) entry.
        counters = run.counters
        if counters.enabled:
            if len(rejected) > _FALLBACK_POPS:
                counters.sched_linear_fallbacks += 1
            elif target is not None:
                counters.sched_index_hits += 1
        if target is None:
            failed_keys.add(shape)
        return target

    def release_pod(self, pod: Pod) -> None:
        """Return a finished/deleted pod's resources to its node."""
        if pod.node_name is None:
            return
        node = self.api.get("Node", pod.node_name)
        if isinstance(node, K8sNode):
            node.release(pod.spec.total_requests())
            self.api.update("Node", node)
