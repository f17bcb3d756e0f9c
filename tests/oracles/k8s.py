"""Linear-scan scheduling pass: the reference for ``K8sScheduler``."""

from __future__ import annotations

from repro.k8s.objects import K8sNode, Pod, PodPhase
from repro.k8s.scheduler import K8sScheduler


class LinearK8sScheduler(K8sScheduler):
    """Each pass walks every pod in the store and scores every node.

    Only the pass body differs from the production scheduler; the watch
    wiring, pass latency, bind and counting paths are inherited, so any
    divergence is a placement divergence.
    """

    def _bind_pending(self) -> int:
        nodes = self.api.nodes()
        bound = 0
        for pod in self.api.pods():
            if pod.bound or pod.phase is not PodPhase.PENDING:
                continue
            target = self._scan_nodes(pod, nodes)
            if target is None:
                self._count_unschedulable()
                continue
            self._bind(pod, target)
            bound += 1
        return bound

    @staticmethod
    def _scan_nodes(pod: Pod, nodes: list[K8sNode]) -> K8sNode | None:
        """Least-allocated ready node that matches the selector and fits."""
        req = pod.spec.total_requests()
        selector = pod.spec.node_selector
        candidates = [
            node
            for node in nodes
            if node.condition.ready
            and not any(node.metadata.labels.get(k) != v for k, v in selector.items())
            and node.fits(req)
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda n: (n.allocated.cpu / max(n.capacity.cpu, 1e-9), n.metadata.name),
        )
