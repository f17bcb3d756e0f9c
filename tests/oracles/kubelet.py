"""Store-scan pod sync: the reference for the kubelet's watch inbox."""

from __future__ import annotations

from repro.k8s.kubelet import Kubelet
from repro.k8s.objects import Pod, PodPhase


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
            self._wakeup.fire(event)

    def _mine(self, pod) -> bool:
        return (
            isinstance(pod, Pod)
            and pod.node_name == self.node_name
            and pod.phase is PodPhase.PENDING
            and pod.metadata.uid not in self._active_pods
        )

    def _pending_pods(self) -> bool:
        return any(self._mine(pod) for pod in self.api.peek("Pod"))

    def _sync(self):
        for pod in self.api.pods():
            if self._mine(pod):
                yield from self._start_pod(pod)
