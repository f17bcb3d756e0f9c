"""References for ``Kubelet``: the store-scan pod sync behind its watch
inbox, and the generator idle loop behind its idle callback chain."""

from __future__ import annotations

from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import K8sNode, NodeCondition, ObjectMeta, Pod, PodPhase
from repro.run import run
from repro.sim import Interrupt, Signal
from repro.sim.signal import count_skipped_ticks, next_tick

from tests.oracles.signal import ReferenceSignal, event_at


class _UnkeyedWatch:
    """The apiserver, except that ``watch`` drops its ``key``: the
    oracle's Pod watch joins the unkeyed fan-out and filters events
    itself, so the apiserver's keyed routing is held to that fan-out."""

    def __init__(self, api):
        self._api = api

    def watch(self, kind, callback, replay_existing=True, key=None):
        self._api.watch(kind, callback, replay_existing=replay_existing)

    def __getattr__(self, name):
        return getattr(self._api, name)


class StoreScanKubelet(Kubelet):
    """Finds its pods by scanning the whole apiserver store, on every
    sync-loop check and every sync, instead of draining the inbox the
    Pod watch fills.  The watch is unkeyed and only wakes the sync loop."""

    def __init__(self, env, apiserver, *args, **kwargs):
        super().__init__(env, _UnkeyedWatch(apiserver), *args, **kwargs)

    def _on_pod_watch(self, event) -> None:
        if self._wants_pod_event(event):
            self._wakeup.fire()

    def _mine(self, pod) -> bool:
        return (
            isinstance(pod, Pod)
            and pod.node_name == self.node_name
            and pod.phase is PodPhase.PENDING
            and pod.metadata.uid not in self._active_pods
        )

    @property
    def _inbox(self) -> list:
        """The store scan stands in for the inbox wherever the kubelet
        reads it (its idle chain reads it directly); writes are dropped."""
        return [pod for pod in self.api.peek("Pod") if self._mine(pod)]

    @_inbox.setter
    def _inbox(self, _value) -> None:
        pass

    def _sync(self):
        for pod in self.api.pods():
            if self._mine(pod):
                yield from self._start_pod(pod)


class ReferenceKubelet(Kubelet):
    """Runs its idle loop in the ``_main`` generator: each idle cycle
    parks the process on a :class:`ReferenceSignal` token, resumes it at
    the tick, yields an RPC ``timeout`` event for the heartbeat and
    writes the Node from the generator.  ``Kubelet`` runs that cycle as
    a callback chain under the same queue keys.  Its sleeps are
    ``timeout`` and :func:`event_at` events, the keys
    ``Environment.sleep`` and ``Environment.sleep_until`` are held to."""

    def __init__(self, env, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        self._wakeup = ReferenceSignal(env)

    def _rpc(self):
        return self.env.timeout(self._rpc_cost())

    def _main(self):
        try:
            yield self.env.timeout(self.startup_cost)
            yield self._rpc()
        except Interrupt:
            run.faults.unregister("wlm.node", self._on_node_fault)
            return
        node = K8sNode(
            metadata=ObjectMeta(name=self.node_name, labels=dict(self.labels)),
            capacity=self.capacity,
            condition=NodeCondition(ready=True, last_heartbeat=self.env.now),
        )
        existing = self.api.get("Node", self.node_name)
        if existing is None:
            self.api.create("Node", node)
        else:
            assert isinstance(existing, K8sNode)
            existing.condition = NodeCondition(ready=True, last_heartbeat=self.env.now)
            node = existing
            self.api.update("Node", node)
        self.k8s_node = node
        last_heartbeat = self.env.now
        wakeup = self._wakeup
        watch_cb = self._on_pod_watch
        self.api.watch("Pod", watch_cb, replay_existing=False, key=self.node_name)
        for pod in self.api.peek("Pod"):
            if (
                isinstance(pod, Pod)
                and pod.node_name == self.node_name
                and pod.phase is PodPhase.PENDING
                and pod.metadata.uid not in self._active_pods
                and pod.metadata.uid not in self._inbox_uids
            ):
                self._inbox_uids.add(pod.metadata.uid)
                self._inbox.append(pod)
        try:
            while self._running:
                epoch = self.env.now
                if self._pending_pods():
                    yield self.env.timeout(self.sync_interval)
                else:
                    tick = epoch + self.sync_interval
                    skipped = 0
                    while tick - last_heartbeat < self.heartbeat_interval:
                        tick += self.sync_interval
                        skipped += 1
                    token = wakeup.park(tick)
                    cause = yield token
                    wakeup.unpark(token)
                    if cause is Signal.FIRED:
                        tick, skipped = next_tick(epoch, self.sync_interval, self.env.now)
                        count_skipped_ticks(self.env, skipped)
                        yield event_at(self.env, tick)
                    else:
                        count_skipped_ticks(self.env, skipped)
                self.stats["sync_loops"] += 1
                if run.metrics.enabled:
                    run.metrics.inc_series(self._series_keys()[0])
                yield from self._sync()
                if self.env.now - last_heartbeat >= self.heartbeat_interval:
                    node.condition.last_heartbeat = self.env.now
                    yield self._rpc()
                    self.api.update("Node", node)
                    last_heartbeat = self.env.now
                    if run.tracer.enabled:
                        run.tracer.instant("k8s.kubelet.heartbeat", node=self.node_name)
        except Interrupt:
            pass
        run.faults.unregister("wlm.node", self._on_node_fault)
        self.api.unwatch("Pod", watch_cb)
        node.condition.ready = False
        self.api.update("Node", node)
