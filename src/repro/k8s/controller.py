"""Node lifecycle controller: detect dead kubelets, fail their pods.

The controller-manager piece the §6 scenarios need for failure handling:
a kubelet that stops heartbeating (allocation cancelled, node crashed)
gets its node marked NotReady, and after an eviction grace period its
running pods are failed so higher layers can reschedule or report.
"""

from __future__ import annotations

from repro.k8s.apiserver import APIServer
from repro.k8s.objects import K8sNode, Pod, PodPhase
from repro.sim import Environment, Signal
from repro.sim.signal import count_skipped_ticks


class NodeLifecycleController:
    """Watches heartbeats; fails pods stuck on dead nodes."""

    #: heartbeat age after which a node is NotReady
    node_monitor_grace = 40.0
    #: additional delay before pods on a NotReady node are failed
    pod_eviction_timeout = 30.0
    check_interval = 5.0

    def __init__(self, env: Environment, apiserver: APIServer):
        self.env = env
        self.api = apiserver
        self.stats = {"nodes_marked_not_ready": 0, "pods_evicted": 0}
        self._not_ready_since: dict[str, float] = {}
        self._wakeup = Signal(env)
        apiserver.watch_signal("Node", self._wakeup, replay_existing=False)
        apiserver.watch_signal("Pod", self._wakeup, replay_existing=False)
        env.process(self._loop(), name="node-lifecycle-controller")

    def _loop(self):
        # Tickless reconcile.  The polling loop checked every node every
        # 5 s; almost all of those checks were no-ops.  Here the loop
        # predicts, from current heartbeats and `_not_ready_since`
        # bookkeeping, the first grid tick at which a check would *act*,
        # parks until then (or until a Node/Pod watch event invalidates
        # the prediction), and runs the unchanged check/evict body exactly
        # at that tick.  `cursor` walks the 5 s grid by the same
        # sequential float additions the polling loop performed, so acted
        # ticks land on bit-identical times.
        wakeup = self._wakeup
        cursor = self.env.now
        while True:
            duty = self._next_duty_tick(cursor)
            if duty is None:
                token = wakeup.park()
                yield token
                wakeup.unpark(token)
                continue
            tick, skipped = duty
            if tick > self.env.now:
                token = wakeup.park(tick)
                cause = yield token
                wakeup.unpark(token)
                if cause is Signal.FIRED:
                    continue  # state changed: re-predict the next duty tick
            count_skipped_ticks(self.env, skipped)
            cursor = tick
            self._check_nodes()
            self._evict_from_dead_nodes()

    def _next_duty_tick(self, cursor: float) -> tuple[float, int] | None:
        """First grid tick after ``cursor`` where the check body would do
        observable work under the *current* state, with the count of idle
        grid ticks skipped over; ``None`` if no future tick ever would.

        Ticks between ``cursor`` and now are counted as skipped without
        evaluation: the loop was parked across them precisely because the
        state of that era predicted no duty, and any change since then
        woke the loop for a re-prediction.
        """
        nodes = [n for n in self.api.peek("Node") if isinstance(n, K8sNode)]
        running_nodes = {
            p.node_name
            for p in self.api.peek("Pod")
            if isinstance(p, Pod) and p.phase is PodPhase.RUNNING and p.node_name
        }
        if not self._has_potential_duty(nodes, running_nodes):
            return None
        now = self.env.now
        tick = cursor + self.check_interval
        skipped = 0
        while tick < now or not self._duty_at(tick, nodes, running_nodes):
            tick += self.check_interval
            skipped += 1
        return tick, skipped

    def _has_potential_duty(self, nodes: list[K8sNode], running_nodes: set) -> bool:
        for node in nodes:
            name = node.metadata.name
            if node.condition.ready:
                return True  # staleness deadline always eventually arrives
            if name not in self._not_ready_since:
                return True  # next tick must record when it went dark
            if name in running_nodes:
                return True  # eviction deadline pending
        return False

    def _duty_at(self, t: float, nodes: list[K8sNode], running_nodes: set) -> bool:
        """Would `_check_nodes` / `_evict_from_dead_nodes` act at tick ``t``?

        Mirrors their comparisons expression-for-expression so float
        rounding matches the polling loop exactly.
        """
        for node in nodes:
            name = node.metadata.name
            if node.condition.ready:
                if t - node.condition.last_heartbeat > self.node_monitor_grace:
                    return True
                if name in self._not_ready_since:
                    return True  # needs the bookkeeping pop
                continue
            since = self._not_ready_since.get(name)
            if since is None:
                return True
            if name in running_nodes and t - since >= self.pod_eviction_timeout:
                return True
        return False

    def _check_nodes(self) -> None:
        for node in self.api.nodes():
            stale = self.env.now - node.condition.last_heartbeat > self.node_monitor_grace
            name = node.metadata.name
            if node.condition.ready and stale:
                node.condition.ready = False
                self.api.update("Node", node)
                self._not_ready_since[name] = self.env.now
                self.stats["nodes_marked_not_ready"] += 1
            elif not node.condition.ready and name not in self._not_ready_since:
                self._not_ready_since[name] = self.env.now
            elif node.condition.ready:
                self._not_ready_since.pop(name, None)

    def _evict_from_dead_nodes(self) -> None:
        for pod in self.api.pods():
            if pod.phase is not PodPhase.RUNNING or pod.node_name is None:
                continue
            since = self._not_ready_since.get(pod.node_name)
            if since is None:
                continue
            if self.env.now - since >= self.pod_eviction_timeout:
                pod.phase = PodPhase.FAILED
                pod.end_time = self.env.now
                pod.message = f"node {pod.node_name} not ready"
                node = self.api.get("Node", pod.node_name)
                if isinstance(node, K8sNode):
                    node.release(pod.spec.total_requests())
                    self.api.update("Node", node)
                self.api.update("Pod", pod)
                self.stats["pods_evicted"] += 1
