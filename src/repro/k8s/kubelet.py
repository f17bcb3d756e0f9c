"""The kubelet: node agent that makes bound pods real.

Supports the rootless mode §6.5 depends on: running as an unprivileged
WLM user inside an allocation, which requires user namespaces, cgroup
v2, and a delegated cgroup subtree — all verified against the node's
(simulated) kernel at startup.

Pods reach a kubelet through a Pod watch keyed by its node name: each
matching event lands in an inbox that the next sync drains, so a sync
never scans the apiserver store.  ``tests/oracles/kubelet.py`` keeps
the store-scan sync as the reference the inbox is held equal to.

An idle kubelet spends its life heartbeating: park until the grid tick
that is due for a heartbeat, sync nothing, send the heartbeat RPC, write
the Node, park again.  That cycle runs as a callback chain on one
reused queue record (:meth:`Kubelet._idle`), under the keys the ``_main``
generator's park and RPC sleep had, with no generator resume per cycle.
The record is ``_main``'s pending resume and is parked on the wakeup
signal against ``_main``, so a fire while it is parked resumes ``_main``
and a stop or crash cancels it in place, as for a parked process.  The
park's tick is the polling loop's sequential sum of sync intervals,
taken in one step where that is exact (``repro.sim.signal.grid_tick``):
with the default intervals, ``epoch + 10.0`` after a heartbeat.  The
chain also hands the loop back to ``_main`` when pods need syncing.
``tests/oracles/kubelet.py`` keeps the generator loop
(``ReferenceKubelet``) as the chain's reference.
"""

from __future__ import annotations

import typing as _t
from math import ceil

from repro.cluster.network import Interconnect
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
from repro.kernel.errors import EBUSY
from repro.kernel.process import SimProcess
from repro.run import run
from repro.sim import Environment, Interrupt, Signal
from repro.sim.environment import _Resume
from repro.sim.signal import count_skipped_ticks, grid_tick, next_tick


class KubeletError(RuntimeError):
    pass


#: what the idle chain hands ``_main``: the tick came with pods to sync,
#: or the loop top has work the chain does not do
_TICK, _LOOP = object(), object()


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
        self._last_heartbeat = 0.0
        # -- the idle chain (see _idle) --
        #: its one queue record, reused until a fire or an interrupt
        #: cancels it
        self._idle_record = _Resume(self, None, None)  # type: ignore[arg-type]
        #: whether the record is the heartbeat RPC's return, not the tick
        self._idle_rpc = False
        #: the current park's loop epoch and skipped grid ticks
        self._idle_epoch = 0.0
        self._idle_skipped = 0

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
        if run.faults.enabled:
            run.faults.register("wlm.node", self._on_node_fault)
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
        evicted = list(self._active_pods.values())
        self.evict_active_pods(reason=reason)
        self.cri.engine.abort_all()
        # a container still mid-start was not in its pod's results yet:
        # the abort above reaped it, so its pod cgroup is empty only now
        for pod in evicted:
            self._remove_pod_cgroup(pod)
        if run.metrics.enabled:
            run.metrics.inc("k8s.kubelet.crashes", node=self.node_name)
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

    def terminate_pod(self, pod: Pod) -> None:
        """End an active pod of this node as deleting it does (a no-op
        for a pod this kubelet does not run).

        A running pod goes through :meth:`_teardown_pod` (CRI stop →
        remove, then its pod cgroup), gives its node resources back and
        lands SUCCEEDED, a clean exit on SIGTERM that writes no pod
        metric or trace record; a pod still starting is evicted
        (:meth:`_fail_pod`).  Synchronous: no virtual time passes.
        """
        if pod.metadata.uid not in self._active_pods:
            return
        if pod.phase is not PodPhase.RUNNING:
            self._fail_pod(pod, list(pod.container_results), reason="terminated")
            return
        self._teardown_pod(pod, pod.container_results, exit_code=0)
        pod.phase = PodPhase.SUCCEEDED
        pod.end_time = self.env.now
        if self.k8s_node is not None:
            self.k8s_node.release(pod.spec.total_requests())
            self.api.update("Node", self.k8s_node)
        self.api.update("Pod", pod)
        del self._active_pods[pod.metadata.uid]

    def _on_node_fault(self, event, phase: str) -> None:
        """Push handler: an injected NODE_CRASH for this node kills us."""
        if phase == "crash" and event.target == self.node_name:
            self.crash(reason=f"node crash (injected, t={event.at:.1f})")

    def _rpc_cost(self) -> float:
        if self.network is not None:
            return self.network.rpc_cost()
        return self.api.request_latency

    def _rpc(self):
        """The RPC's round trip, for the caller to yield."""
        return self.env.sleep(self._rpc_cost())

    def _main(self):
        try:
            yield self.env.sleep(self.startup_cost)
            yield self._rpc()
        except Interrupt:
            # stopped or crashed before registering: no Node, no watch
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
        self._last_heartbeat = self.env.now
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
            # 0.5 s grid as before; idle, the idle chain parks it until
            # either a pod lands on this node (watch fires `_wakeup`) or
            # the grid tick that is due for a heartbeat, and runs idle
            # heartbeats itself.  A signal-woken loop re-aligns to the
            # next grid boundary, so every observable virtual time
            # matches the polling version bit for bit.
            while self._running:
                if self._pending_pods():
                    yield self.env.sleep(self.sync_interval)
                else:
                    woke = yield self._idle(self.env.now)
                    if woke is _LOOP:
                        continue
                    if woke is Signal.FIRED:
                        tick, skipped = next_tick(
                            self._idle_epoch, self.sync_interval, self.env.now
                        )
                        count_skipped_ticks(self.env, skipped)
                        yield self.env.sleep_until(tick)
                self.stats["sync_loops"] += 1
                if run.metrics.enabled:
                    run.metrics.inc_series(self._series_keys()[0])
                yield from self._sync()
                if self.env.now - self._last_heartbeat >= self.heartbeat_interval:
                    node.condition.last_heartbeat = self.env.now
                    yield self._rpc()
                    self.api.update("Node", node)
                    self._last_heartbeat = self.env.now
                    if run.tracer.enabled:
                        run.tracer.instant("k8s.kubelet.heartbeat", node=self.node_name)
        except Interrupt:
            # the interrupt cancelled the chain's record if it was queued
            self._wakeup.unpark(self._idle_record)
        run.faults.unregister("wlm.node", self._on_node_fault)
        self.api.unwatch("Pod", watch_cb)
        node.condition.ready = False
        self.api.update("Node", node)

    # -- the idle chain ----------------------------------------------------------
    def _idle(self, epoch: float) -> _Resume:
        """Hand the idle loop to the callback chain; returns the record
        ``_main`` yields until the chain hands control back.

        The chain runs park → tick → heartbeat RPC → Node write → park
        on one reused ``_Resume`` record under the keys the generator
        loop's park and RPC sleep had, with no generator resume.  It
        gives ``_main`` back the loop when the tick finds pods to sync
        (``_TICK``, inline), when the loop top after a heartbeat does
        (``_LOOP``, inline), or when the signal fires while parked
        (:data:`Signal.FIRED`, queued by :meth:`Signal.fire`).  A fire
        during the RPC finds nothing parked and is lost, as it is for a
        process; a stop or crash cancels the record in place."""
        self._park(epoch)
        return self._idle_record

    def _park(self, epoch: float) -> None:
        """Park the chain until the first grid tick from ``epoch`` that
        is due for a heartbeat.  The tick is the polling loop's wake
        time, summed as the loop summed it (:func:`grid_tick`): ``epoch
        + k*interval`` rounds differently where the sum crosses a power
        of two.  The tick count is estimated in reals (after a
        heartbeat, with the default intervals, ``epoch + 10.0`` after 19
        skipped ticks) and checked against the loop's condition on the
        sums; a miss replays the loop."""
        interval = self.sync_interval
        heartbeat = self.heartbeat_interval
        last = self._last_heartbeat
        span = heartbeat - (epoch - last)
        skipped = ceil(span / interval) - 1 if span > interval else 0
        prev = grid_tick(epoch, interval, skipped)
        tick = prev + interval
        if tick - last < heartbeat or (skipped and prev - last >= heartbeat):
            tick = epoch + interval
            skipped = 0
            while tick - last < heartbeat:
                tick += interval
                skipped += 1
        self._idle_epoch = epoch
        self._idle_skipped = skipped
        self._idle_rpc = False
        record = self._idle_record
        if record.process is None:  # a fire or an interrupt cancelled it
            record = self._idle_record = _Resume(self, None, None)  # type: ignore[arg-type]
        proc = self._proc
        env = self.env
        # Signal.park for the chain's record, inline
        proc._pending_resume = record
        self._wakeup._parked[record] = proc
        if env._profile.enabled:
            env._profile.parked_processes += 1
        env._schedule_at(record, tick)

    def _do_resume(self, _value: object, _exception: object) -> None:
        """The idle chain's record ran: the park's tick, or the
        heartbeat RPC's return (the environment's ``_Resume`` dispatch).

        Runs once per idle record, so it reads the inbox, the clock and
        the wakeup's registry itself rather than through
        ``_pending_pods``, ``_sync`` and the signal's methods; an idle
        sync with an empty inbox has nothing to drain."""
        env = self.env
        proc = self._proc
        env._active_process = proc
        try:
            if not self._idle_rpc:
                del self._wakeup._parked[self._idle_record]
                prof = env._profile
                if prof.enabled and self._idle_skipped:
                    prof.poll_ticks_skipped += self._idle_skipped
                if self._inbox:
                    # pods reached the inbox without a fire: _main syncs
                    proc._do_resume(_TICK, None)
                    return
                self.stats["sync_loops"] += 1
                if run.metrics.enabled:
                    run.metrics.inc_series(self._series_keys()[0])
                now = env._now
                if now - self._last_heartbeat >= self.heartbeat_interval:
                    self.k8s_node.condition.last_heartbeat = now
                    self._idle_rpc = True
                    network = self.network
                    cost = (
                        network.rpc_cost() if network is not None
                        else self.api.request_latency
                    )
                    # still _main's pending resume: an interrupt cancels it
                    env._schedule(self._idle_record, cost)
                    return
            else:
                self.api.update("Node", self.k8s_node)
                self._last_heartbeat = env._now
                if run.tracer.enabled:
                    run.tracer.instant("k8s.kubelet.heartbeat", node=self.node_name)
            if not self._running or self._inbox:
                proc._do_resume(_LOOP, None)
                return
            self._park(env._now)
        finally:
            env._active_process = None

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
        self._wakeup.fire()

    def _pending_pods(self) -> bool:
        return bool(self._inbox)

    # -- pod sync --------------------------------------------------------------------
    def _sync(self) -> _t.Iterable:
        """The sync body to ``yield from``: the inbox drain, or an
        empty tuple when the inbox is empty, so an idle sync builds no
        generator."""
        if not self._inbox:
            return ()
        return self._drain_inbox()

    def _drain_inbox(self):
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
        with run.tracer.span(
            "k8s.pod.start", pod=pod.metadata.name, node=self.node_name
        ):
            try:
                for cspec in pod.spec.containers:
                    pulled = self.cri.pull_image(cspec.image, now=self.env.now)
                    deadline = self.pull_deadline
                    if deadline is not None and pulled.pull_cost > deadline:
                        yield self.env.sleep(deadline)
                        raise KubeletError(
                            f"pull of {cspec.image!r} exceeded deadline"
                            f" ({pulled.pull_cost:.1f}s > {deadline:.1f}s)"
                        )
                    yield self.env.sleep(pulled.pull_cost)
                    result = self.cri.run_container(
                        pulled, user, command=cspec.command,
                        cgroup_path=self._pod_cgroup(pod),
                    )
                    yield self.env.sleep(result.startup_seconds - pulled.pull_cost)
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
                    yield self.env.sleep(wait)
                self._fail_pod(pod, results, reason=str(exc))
                return
            pod.phase = PodPhase.RUNNING
            pod.start_time = self.env.now
            yield self._rpc()
        self.api.update("Pod", pod)
        self.stats["pods_started"] += 1
        if run.metrics.enabled:
            keys = self._series_keys()
            run.metrics.inc_series(keys[1])
            run.metrics.observe_series(keys[2], self.env.now - started_at)
        if pod.spec.duration is not None:
            self.env.process(self._finish_pod_later(pod, results), name=f"pod-{pod.metadata.name}")

    def _pod_cgroup(self, pod: Pod) -> str | None:
        if self.cgroup_path is None:
            return None
        return f"{self.cgroup_path}/pod-{pod.metadata.uid}"

    def _teardown_pod(self, pod: Pod, results: list, exit_code: int) -> None:
        """The one way a pod's containers end, whatever ended the pod:
        CRI stop → remove for each container (the runtime record goes,
        the container and monitor processes are reaped), then the pod
        cgroup, empty by now, is removed.  Synchronous: no virtual time
        passes."""
        for result in results:
            self.cri.stop_container(result, exit_code)
            self.cri.remove_container(result)
        self._remove_pod_cgroup(pod)

    def _remove_pod_cgroup(self, pod: Pod) -> None:
        path = self._pod_cgroup(pod)
        if path is None:
            return
        cgroups = self.cri.engine.kernel.cgroups
        if not cgroups.exists(path):
            return  # no container of the pod got as far as its cgroup
        user = self.user_proc or self.cri.engine.kernel.init
        try:
            cgroups.remove(path, by_uid=0 if user.creds.is_root else user.creds.uid)
        except EBUSY:
            # a container of the pod is still mid-start (an eviction
            # raced it); the crash path retries once its abort reaped it
            pass

    def _fail_pod(self, pod: Pod, results: list, reason: str) -> None:
        """Propagate a start failure or eviction to the pod record.

        Partial containers are torn down (:meth:`_teardown_pod`), the
        node's resource grant is returned, and the pod goes FAILED with
        ``failure_reason`` set.  Synchronous (no RPC cost) so crash
        paths can run it inline; the status update rides the next sync.
        """
        self._teardown_pod(pod, results, exit_code=137)
        pod.phase = PodPhase.FAILED
        pod.end_time = self.env.now
        pod.failure_reason = reason  # type: ignore[attr-defined]
        if self.k8s_node is not None:
            self.k8s_node.release(pod.spec.total_requests())
            self.api.update("Node", self.k8s_node)
        self.api.update("Pod", pod)
        self._active_pods.pop(pod.metadata.uid, None)
        if run.tracer.enabled:
            run.tracer.instant(
                "k8s.pod.failed", pod=pod.metadata.name, node=self.node_name,
                reason=reason,
            )
        if run.metrics.enabled:
            run.metrics.inc_series(self._series_keys()[3])

    def _finish_pod_later(self, pod: Pod, results: list):
        assert pod.spec.duration is not None
        yield self.env.sleep(pod.spec.duration)
        if pod.phase is not PodPhase.RUNNING or pod.metadata.uid not in self._active_pods:
            return  # failed or evicted while the payload "ran"
        self._teardown_pod(pod, results, exit_code=0)
        pod.phase = PodPhase.SUCCEEDED
        pod.end_time = self.env.now
        if self.k8s_node is not None:
            self.k8s_node.release(pod.spec.total_requests())
            self.api.update("Node", self.k8s_node)
        self.api.update("Pod", pod)
        self.stats["pods_finished"] += 1
        self._active_pods.pop(pod.metadata.uid, None)
        run.tracer.instant(
            "k8s.pod.finished", pod=pod.metadata.name, node=self.node_name
        )
        if run.metrics.enabled:
            run.metrics.inc_series(self._series_keys()[4])

    def _series_keys(self) -> tuple:
        """Interned per-node metric keys (built once, on first enabled
        use) — the hot loops observe per pod and per sync, and a label
        dict re-sorted per event is measurable at 1k nodes."""
        keys = self._metric_keys
        if keys is None:
            reg = run.metrics
            keys = self._metric_keys = (
                reg.series_key("k8s.kubelet.sync_loops", node=self.node_name),
                reg.series_key("k8s.pods_started", node=self.node_name),
                reg.series_key("k8s.pod.start_seconds", node=self.node_name),
                reg.series_key("k8s.pods_failed", node=self.node_name),
                reg.series_key("k8s.pods_finished", node=self.node_name),
            )
        return keys
