"""The kubelet: node agent that makes bound pods real.

Supports the rootless mode §6.5 depends on: running as an unprivileged
WLM user inside an allocation, which requires user namespaces, cgroup
v2, and a delegated cgroup subtree — all verified against the node's
(simulated) kernel at startup.

Pods reach a kubelet through a Pod watch keyed by its node name: each
matching event lands in an inbox that the next sync drains, so a sync
never scans the apiserver store.  ``tests/oracles/kubelet.py`` keeps
the store-scan sync as the reference the inbox is held equal to.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.network import Interconnect
from repro.faults.injector import injector as _faults
from repro.k8s.apiserver import APIServer
from repro.k8s.cri import CRIRuntime
from repro.k8s.objects import (
    K8sNode,
    NodeCondition,
    ObjectMeta,
    Pod,
    PodPhase,
    ResourceRequests,
)
from repro.kernel.process import SimProcess
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Environment, Interrupt, Signal
from repro.sim.signal import count_skipped_ticks, next_tick


class KubeletError(RuntimeError):
    pass


class Kubelet:
    """One node agent."""

    #: cold start: config load, CRI probe, node registration
    startup_cost = 2.0
    sync_interval = 0.5
    heartbeat_interval = 10.0
    #: max virtual seconds a pod start may spend waiting on one image
    #: pull (including the engine's retry backoff) before the pod FAILs;
    #: None disables the deadline
    pull_deadline: float | None = 120.0

    def __init__(
        self,
        env: Environment,
        apiserver: APIServer,
        node_name: str,
        cri: CRIRuntime,
        capacity: ResourceRequests | None = None,
        labels: dict[str, str] | None = None,
        network: Interconnect | None = None,
        #: rootless mode: the WLM-allocation user process this kubelet runs as
        user_proc: SimProcess | None = None,
        #: delegated cgroup subtree for pod cgroups (rootless mode)
        cgroup_path: str | None = None,
    ):
        self.env = env
        self.api = apiserver
        self.node_name = node_name
        self.cri = cri
        self.capacity = capacity or ResourceRequests(cpu=64, memory=256 * 2**30, gpu=0)
        self.labels = labels or {}
        self.network = network
        self.user_proc = user_proc
        self.cgroup_path = cgroup_path
        self.k8s_node: K8sNode | None = None
        self._proc = None
        self._running = False
        self._active_pods: dict[str, object] = {}
        #: fired by the apiserver watch when a pod lands on this node
        self._wakeup = Signal(env)
        #: pods routed here by the keyed watch, drained by _sync — the
        #: informer-cache stand-in that replaces per-sync store scans
        self._inbox: list[Pod] = []
        self._inbox_uids: set[str] = set()
        self._metric_keys: tuple | None = None
        self.stats = {"pods_started": 0, "pods_finished": 0, "sync_loops": 0}

    @property
    def rootless(self) -> bool:
        return self.user_proc is not None and not self.user_proc.creds.is_root

    def _validate_rootless(self) -> None:
        """§6.5: 'enabling version 2 of the Linux cgroups framework,
        cgroup delegations, and setting a suitable network configuration'."""
        kernel = self.cri.engine.kernel
        if not kernel.config.unprivileged_userns:
            raise KubeletError("rootless kubelet needs unprivileged user namespaces")
        if kernel.config.cgroup_version != 2:
            raise KubeletError("rootless kubelet needs cgroup v2")
        if self.cgroup_path is None:
            raise KubeletError("rootless kubelet needs a delegated cgroup subtree")
        assert self.user_proc is not None
        node_cg = kernel.cgroups._resolve(self.cgroup_path)
        if node_cg.delegated_uid() != self.user_proc.creds.uid:
            raise KubeletError(
                f"cgroup {self.cgroup_path} is not delegated to uid "
                f"{self.user_proc.creds.uid}"
            )

    # -- lifecycle -----------------------------------------------------------------
    def start(self):
        """Begin the kubelet process; returns the sim process.

        The node is registered and Ready once ``startup_cost`` has
        elapsed.  Rootless kubelets (``user_proc`` set) first verify the
        §6.5 prerequisites — unprivileged user namespaces, cgroup v2,
        and a delegated cgroup subtree — raising :class:`KubeletError`
        if the node's kernel lacks any of them.  While the fault
        injector is armed, the kubelet also subscribes to ``"wlm.node"``
        crash events for its own node.
        """
        if self.rootless:
            self._validate_rootless()
        self._running = True
        if _faults.enabled:
            _faults.register("wlm.node", self._on_node_fault)
        self._proc = self.env.process(self._main(), name=f"kubelet-{self.node_name}")
        return self._proc

    def stop(self) -> None:
        """Shut down gracefully: the sync loop exits, the node object is
        marked NotReady, and the pod watch is dropped.  Running pods are
        left alone (use :meth:`crash` for unclean death).  No-op if the
        kubelet is already stopping — a crashed agent may have a stop
        interrupt still in flight."""
        if not self._running:
            return
        self._running = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt(cause="kubelet stop")

    def crash(self, reason: str = "node crash") -> None:
        """Die with the node: no graceful drain, nothing left behind.

        Active pods transition to FAILED, their containers are force-
        stopped, and any other non-terminal container in the engine is
        aborted — a dead node must not hold lingering processes or
        mounts (§3.2).  Idempotent once the kubelet is down.
        """
        if not self._running:
            return
        self.evict_active_pods(reason=reason)
        self.cri.engine.abort_all()
        if _metrics.registry.enabled:
            _metrics.inc("k8s.kubelet.crashes", node=self.node_name)
        self._running = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt(cause=reason)

    def evict_active_pods(self, reason: str = "evicted") -> int:
        """Fail every pod this kubelet is tracking; returns the count."""
        n = 0
        for pod in list(self._active_pods.values()):
            results = list(getattr(pod, "container_results", None) or [])
            self._fail_pod(pod, results, reason=reason)
            n += 1
        return n

    def _on_node_fault(self, event, phase: str) -> None:
        """Push handler: an injected NODE_CRASH for this node kills us."""
        if phase == "crash" and event.target == self.node_name:
            self.crash(reason=f"node crash (injected, t={event.at:.1f})")

    def _rpc(self):
        if self.network is not None:
            return self.env.timeout(self.network.rpc_cost())
        return self.env.timeout(self.api.request_latency)

    def _main(self):
        yield self.env.timeout(self.startup_cost)
        yield self._rpc()
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
        # Seed the inbox from the store: pods bound to this node before
        # the watch existed (e.g. left PENDING by a previous agent
        # incarnation) must still be synced.
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
            # Tickless sync loop.  With pending pods it polls on the same
            # 0.5 s grid as before; idle, it parks until either a pod
            # lands on this node (watch fires `wakeup`) or the grid tick
            # that is due for a heartbeat.  A signal-woken loop re-aligns
            # to the next grid boundary, so every observable virtual time
            # matches the polling version bit for bit.
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
                        count_skipped_ticks(skipped)
                        yield self.env.timeout_until(tick)
                    else:
                        count_skipped_ticks(skipped)
                self.stats["sync_loops"] += 1
                if _metrics.registry.enabled:
                    _metrics.registry.inc_series(self._series_keys()[0])
                yield from self._sync()
                if self.env.now - last_heartbeat >= self.heartbeat_interval:
                    node.condition.last_heartbeat = self.env.now
                    yield self._rpc()
                    self.api.update("Node", node)
                    last_heartbeat = self.env.now
                    _trace.tracer.instant("k8s.kubelet.heartbeat", node=self.node_name)
        except Interrupt:
            pass
        _faults.unregister("wlm.node", self._on_node_fault)
        self.api.unwatch("Pod", watch_cb)
        node.condition.ready = False
        self.api.update("Node", node)

    def _wants_pod_event(self, event) -> bool:
        obj = event.obj
        return (
            isinstance(obj, Pod)
            and obj.node_name == self.node_name
            and obj.phase is PodPhase.PENDING
        )

    def _on_pod_watch(self, event) -> None:
        """The Pod watch callback: route matching events to the inbox
        and fire the sync loop's wakeup signal."""
        if not self._wants_pod_event(event):
            return
        uid = event.obj.metadata.uid
        if uid not in self._inbox_uids and uid not in self._active_pods:
            self._inbox_uids.add(uid)
            self._inbox.append(event.obj)
        self._wakeup.fire(event)

    def _pending_pods(self) -> bool:
        return bool(self._inbox)

    # -- pod sync --------------------------------------------------------------------
    def _sync(self):
        # Drain a snapshot: pods landing while a start yields belong to
        # the next sync, as if the pod list were read at sync start.
        batch = self._inbox
        self._inbox = []
        for pod in batch:
            self._inbox_uids.discard(pod.metadata.uid)
            if (
                pod.node_name != self.node_name
                or pod.phase is not PodPhase.PENDING
                or pod.metadata.uid in self._active_pods
            ):
                continue
            yield from self._start_pod(pod)

    def _start_pod(self, pod: Pod):
        """Make a bound pod real: pull images, run containers, go RUNNING.

        Failure propagation: a pull that exhausts the engine's retry
        budget (:class:`~repro.faults.retry.RetryExhausted`), exceeds
        :attr:`pull_deadline`, or any container/hook error fails the
        *pod* — partial containers are stopped, node resources released,
        and the pod lands in FAILED with a ``failure_reason`` — rather
        than wedging the kubelet's sync loop.
        """
        self._active_pods[pod.metadata.uid] = pod
        results: list = []
        # Published incrementally so an eviction mid-start can still
        # reach (and stop) the containers created so far.
        pod.container_results = results
        user = self.user_proc or self.cri.engine.kernel.init
        started_at = self.env.now
        with _trace.span(
            "k8s.pod.start", pod=pod.metadata.name, node=self.node_name
        ):
            try:
                for cspec in pod.spec.containers:
                    pulled = self.cri.pull_image(cspec.image, now=self.env.now)
                    deadline = self.pull_deadline
                    if deadline is not None and pulled.pull_cost > deadline:
                        yield self.env.timeout(deadline)
                        raise KubeletError(
                            f"pull of {cspec.image!r} exceeded deadline"
                            f" ({pulled.pull_cost:.1f}s > {deadline:.1f}s)"
                        )
                    yield self.env.timeout(pulled.pull_cost)
                    cgroup = (
                        f"{self.cgroup_path}/pod-{pod.metadata.uid}" if self.cgroup_path else None
                    )
                    result = self.cri.run_container(pulled, user, command=cspec.command, cgroup_path=cgroup)
                    yield self.env.timeout(result.startup_seconds - pulled.pull_cost)
                    results.append(result)
            except Interrupt:
                raise  # kubelet stop/crash, not a pod failure
            except Exception as exc:  # noqa: BLE001 - any start error fails the pod
                # Failed pulls are analytic: the engine accounted its
                # retry time in exc.elapsed but nothing was yielded yet,
                # so pay it here (capped by the pull deadline).
                elapsed = getattr(exc, "elapsed", None)
                if elapsed is not None:
                    wait = elapsed if self.pull_deadline is None else min(
                        elapsed, self.pull_deadline
                    )
                    yield self.env.timeout(wait)
                self._fail_pod(pod, results, reason=str(exc))
                return
            pod.phase = PodPhase.RUNNING
            pod.start_time = self.env.now
            yield self._rpc()
        self.api.update("Pod", pod)
        self.stats["pods_started"] += 1
        if _metrics.registry.enabled:
            keys = self._series_keys()
            _metrics.registry.inc_series(keys[1])
            _metrics.registry.observe_series(keys[2], self.env.now - started_at)
        if pod.spec.duration is not None:
            self.env.process(self._finish_pod_later(pod, results), name=f"pod-{pod.metadata.name}")

    def _fail_pod(self, pod: Pod, results: list, reason: str) -> None:
        """Propagate a start failure or eviction to the pod record.

        Partial containers are stopped, the node's resource grant is
        returned, and the pod goes FAILED with ``failure_reason`` set.
        Synchronous (no RPC cost) so crash paths can run it inline; the
        status update rides the next sync.
        """
        for result in results:
            self.cri.stop_container(result, exit_code=137)
        pod.phase = PodPhase.FAILED
        pod.end_time = self.env.now
        pod.failure_reason = reason  # type: ignore[attr-defined]
        if self.k8s_node is not None:
            self.k8s_node.release(pod.spec.total_requests())
            self.api.update("Node", self.k8s_node)
        self.api.update("Pod", pod)
        self._active_pods.pop(pod.metadata.uid, None)
        if _trace.tracer.enabled:
            _trace.tracer.instant(
                "k8s.pod.failed", pod=pod.metadata.name, node=self.node_name,
                reason=reason,
            )
        if _metrics.registry.enabled:
            _metrics.registry.inc_series(self._series_keys()[3])

    def _finish_pod_later(self, pod: Pod, results: list):
        assert pod.spec.duration is not None
        yield self.env.timeout(pod.spec.duration)
        if pod.phase is not PodPhase.RUNNING or pod.metadata.uid not in self._active_pods:
            return  # failed or evicted while the payload "ran"
        for result in results:
            self.cri.stop_container(result)
        pod.phase = PodPhase.SUCCEEDED
        pod.end_time = self.env.now
        if self.k8s_node is not None:
            self.k8s_node.release(pod.spec.total_requests())
            self.api.update("Node", self.k8s_node)
        self.api.update("Pod", pod)
        self.stats["pods_finished"] += 1
        self._active_pods.pop(pod.metadata.uid, None)
        _trace.tracer.instant(
            "k8s.pod.finished", pod=pod.metadata.name, node=self.node_name
        )
        if _metrics.registry.enabled:
            _metrics.registry.inc_series(self._series_keys()[4])

    def _series_keys(self) -> tuple:
        """Interned per-node metric keys (built once, on first enabled
        use) — the hot loops observe per pod and per sync, and a label
        dict re-sorted per event is measurable at 1k nodes."""
        keys = self._metric_keys
        if keys is None:
            reg = _metrics.registry
            keys = self._metric_keys = (
                reg.series_key("k8s.kubelet.sync_loops", node=self.node_name),
                reg.series_key("k8s.pods_started", node=self.node_name),
                reg.series_key("k8s.pod.start_seconds", node=self.node_name),
                reg.series_key("k8s.pods_failed", node=self.node_name),
                reg.series_key("k8s.pods_finished", node=self.node_name),
            )
        return keys
