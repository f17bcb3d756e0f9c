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
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Environment, Signal
from repro.sim import profile as _profile

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
        # Latching signal == the recreate-an-event "bell" pattern: rings
        # while a pass is in flight coalesce into the next wait().
        self._bell = Signal(env, latch=True)
        self.stats = {"scheduled": 0, "unschedulable_events": 0}
        #: pending pods in store (ADDED) order; unschedulable pods stay
        self._pending: list[Pod] = []
        self._pending_uids: set[str] = set()
        #: lazy-deletion min-heap of (ratio, name, seq); an entry is live
        #: iff its seq matches _node_seq[name]
        self._heap: list[tuple[float, str, int]] = []
        self._node_seq: dict[str, int] = {}
        self._nodes: dict[str, K8sNode] = {}
        #: interned per-node metric keys for the bind counter
        self._bind_keys: dict[str, tuple] = {}
        self._unsched_key = None
        # Index maintenance rides its own watcher so replaying the
        # existing nodes does not ring the bell (an extra empty pass
        # would shift every trace).
        apiserver.watch("Node", self._on_node_index_event, replay_existing=True)
        apiserver.watch("Pod", self._on_pod_event, replay_existing=True)
        apiserver.watch("Node", self._on_node_event, replay_existing=False)
        env.process(self._loop(), name="kube-scheduler")

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
                counters = _profile.counters
                if counters.enabled and len(self._pending) > counters.sched_pending_peak:
                    counters.sched_pending_peak = len(self._pending)
            self._ring()

    def _on_node_event(self, event: WatchEvent) -> None:
        self._ring()

    def _on_node_index_event(self, event: WatchEvent) -> None:
        node = event.obj
        if not isinstance(node, K8sNode):
            return
        name = node.metadata.name
        if event.type is WatchEventType.DELETED:
            self._node_seq.pop(name, None)
            self._nodes.pop(name, None)
            return
        seq = self._node_seq.get(name, 0) + 1
        self._node_seq[name] = seq
        self._nodes[name] = node
        ratio = node.allocated.cpu / max(node.capacity.cpu, 1e-9)
        heapq.heappush(self._heap, (ratio, name, seq))
        # Stale entries accumulate one per node update; compact before
        # the heap outgrows the live node set by a wide margin.
        if len(self._heap) > 64 + 4 * len(self._nodes):
            self._compact_heap()

    def _compact_heap(self) -> None:
        seqs = self._node_seq
        self._heap = [e for e in self._heap if seqs.get(e[1]) == e[2]]
        heapq.heapify(self._heap)

    def _ring(self) -> None:
        self._bell.fire()

    def _loop(self):
        while True:
            yield self._bell.wait()
            yield self.env.timeout(self.pass_latency)
            self._schedule_pass()

    # -- one pass ------------------------------------------------------------------
    def _schedule_pass(self) -> None:
        bound = self._bind_pending()
        if _trace.tracer.enabled:
            # The pass's think time elapsed just before this call (the
            # loop sleeps pass_latency, then decides) — replay it as one
            # slice so binds sit at the slice's end on the timeline.
            _trace.tracer.complete_at(
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
        _trace.tracer.instant(
            "k8s.bind", pod=pod.metadata.name, node=target.metadata.name
        )
        if _metrics.registry.enabled:
            name = target.metadata.name
            key = self._bind_keys.get(name)
            if key is None:
                key = self._bind_keys[name] = _metrics.registry.series_key(
                    "k8s.scheduler.binds", node=name
                )
            _metrics.registry.inc_series(key)

    def _count_unschedulable(self) -> None:
        self.stats["unschedulable_events"] += 1
        if _metrics.registry.enabled:
            if self._unsched_key is None:
                self._unsched_key = _metrics.registry.series_key(
                    "k8s.scheduler.unschedulable"
                )
            _metrics.registry.inc_series(self._unsched_key)

    # -- node picking --------------------------------------------------------------
    def _pick_node(self, pod: Pod, failed_keys: set[tuple]) -> K8sNode | None:
        req = pod.spec.total_requests()
        selector = pod.spec.node_selector
        shape = (req.cpu, req.memory, req.gpu, tuple(sorted(selector.items())))
        if shape in failed_keys:
            return None
        heap = self._heap
        seqs = self._node_seq
        nodes = self._nodes
        rejected: list[tuple[float, str, int]] = []
        target: K8sNode | None = None
        while heap:
            entry = heap[0]
            ratio, name, seq = entry
            if seqs.get(name) != seq:
                heapq.heappop(heap)
                continue
            heapq.heappop(heap)
            node = nodes[name]
            live = node.allocated.cpu / max(node.capacity.cpu, 1e-9)
            if live != ratio:
                # Node mutated without an apiserver update (tests poking
                # `allocated` directly): re-key under a fresh seq so the
                # heap order stays the true (ratio, name) order.
                seq = seqs[name] = seq + 1
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
            break
        for entry in rejected:
            heapq.heappush(heap, entry)
        # The winner's entry is not pushed back: the caller's claim +
        # Node update re-enters _on_node_index_event, which pushes the
        # fresh (ratio, name, seq+1) entry.
        counters = _profile.counters
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
