"""References for ``K8sScheduler``: the linear-scan pass, and the
generator loop behind a latching signal that ``repro.sim.Bell`` replaced
(the Slurm controller ran the same loop)."""

from __future__ import annotations

from repro.k8s.objects import K8sNode, Pod, PodPhase
from repro.k8s.scheduler import K8sScheduler
from repro.sim import Environment, Event


class LatchingSignal:
    """A wakeup whose unheard fire is remembered for the next ``wait``.

    The recreate-an-event "bell" pattern: ``fire`` succeeds every
    waiter; a fire with no waiter latches, unless a waiter the previous
    fire succeeded has not been processed yet, in which case it is
    absorbed (ringing an already-triggered bell).
    """

    def __init__(self, env: Environment):
        self.env = env
        self._waiters: list[Event] = []
        self._pending = False
        #: events succeeded by the most recent fire that woke anyone
        self._last_fired: list[Event] = []

    def wait(self) -> Event:
        event = Event(self.env)
        if self._pending:
            self._pending = False
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def fire(self) -> None:
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            self._last_fired = waiters
            for event in waiters:
                event.succeed()
            prof = self.env._profile
            if prof.enabled:
                prof.wakeups_fired += len(waiters)
        elif not any(not ev.processed for ev in self._last_fired):
            self._pending = True


class ReferenceBell:
    """``repro.sim.Bell``'s constructor and ``ring`` over the loop it
    replaced: a process that waits on a :class:`LatchingSignal`, sleeps
    ``latency`` and runs ``on_pass``, forever.  Every pass runs, so
    ``idle`` is ignored."""

    def __init__(
        self, env: Environment, latency: float, on_pass, name: str = "bell", idle=None
    ):
        self._signal = LatchingSignal(env)
        env.process(self._loop(env, latency, on_pass), name=name)

    def ring(self) -> None:
        self._signal.fire()

    def _loop(self, env: Environment, latency: float, on_pass):
        while True:
            yield self._signal.wait()
            yield env.timeout(latency)
            on_pass()


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
