"""One simulator event per occurrence: the reference for the fleet pump.

:class:`OracleFleetShardEngine` runs a fleet shard the slow, obvious
way.  Every fault edge, arrival and completion is its own simulator
event, and placement goes through :class:`LinearCapacityScan`.  The
arrival, placement, completion, drain and crash/restore bodies are the
oracle's own: one method per occurrence, a slot object per running
start, and a completion event that carries only the slot id and its
generation.  From the production engine it takes only the setup (trace,
catalog, registry, fault edges), the registry pull's price
(``_cold_pull``, called for every cold pull: the oracle keeps no pull
table and knows no fault windows of its own, so the equivalence tests
compare the engine's table, and the windows that bypass it, with the
registry and the armed injector) and the result fold in ``run``.  Tie order
comes from the simulator itself: fault edges are URGENT and scheduled
first, completions are URGENT and scheduled as they are placed,
arrivals are NORMAL.  The epoch pump's three-stream merge must
reproduce exactly that order.

Time series are sampled where the pump samples them: once after the
last occurrence of every epoch that had one, stamped from the epoch's
boundary, and before anything scheduled at that boundary.  The first
occurrence in an epoch schedules that tick at the boundary, at a
priority above URGENT; the tick folds every shard aggregate over the
tenants and records through ``TimeSeriesRecorder.record`` by name, so
a slip in the pump's own sampler counters shows as a series mismatch.
"""

from __future__ import annotations

from repro.faults.retry import RetryExhausted
from repro.run import run
from repro.sim import Environment
from repro.sim.events import Event
from repro.workload import fleet as _fleet

from tests.oracles.capacity import LinearCapacityScan


class _Slot:
    """One running start.  Slots are pooled LIFO like the engine's, so a
    crash kill-scan visits them (and requeues their starts) in the same
    order; ``gen`` counts crash kills so a killed start's completion
    event is recognised as stale."""

    __slots__ = ("node", "req", "tenant", "busy", "k", "live", "gen")

    def __init__(self) -> None:
        self.live = False
        self.gen = 0


class OracleFleetShardEngine(_fleet.FleetShardEngine):
    #: a sample tick runs before every occurrence at its boundary
    SAMPLE = Environment.URGENT - 1

    def __init__(self, env, config, shard, plan=None):
        super().__init__(env, config, shard, plan=plan)
        self.index = LinearCapacityScan(self.n_nodes, config.node_cpus)
        self._slots: list[_Slot] = []
        self._free: list[int] = []
        #: the boundary of the last epoch whose sample tick is scheduled
        self._tick_at = -1.0
        for edge in self._fault_edges:
            self._schedule(edge[0], self._on_edge, edge, Environment.URGENT)
        for k, t in enumerate(self._times):
            self._schedule(t, self._on_arrival, k, Environment.NORMAL)

    def _schedule(self, t: float, callback, value, priority: int) -> None:
        event = Event(self.env)
        event.callbacks.append(callback)
        event._value = value
        self.env._schedule_at(event, t, priority=priority)

    def _pump(self):
        """The events scheduled at construction drive the run."""
        return
        yield

    # -- occurrences ---------------------------------------------------------
    def _occur(self) -> None:
        """An occurrence at ``now``: its epoch samples at its boundary."""
        if not self._rec.enabled:
            return
        epoch_len = self.config.epoch
        boundary = (int(self.env.now // epoch_len) + 1) * epoch_len
        if boundary != self._tick_at:
            self._tick_at = boundary
            self._schedule(boundary, self._on_tick, None, self.SAMPLE)

    def _on_tick(self, event: Event) -> None:
        rec = self._rec
        if self.env.now >= rec._next_due:
            self._sample_timeseries(rec)

    def _on_arrival(self, event: Event) -> None:
        self._occur()
        k = event._value
        t = self._times[k]
        req = self._cpus[k]
        node = self.index.alloc(req)
        if node is None:
            self._enqueue(k, t)
        else:
            self._place(k, t, t, node, req)
        self._note_pressure()

    def _on_completion(self, event: Event) -> None:
        self._occur()
        slot_id, gen = event._value
        slot = self._slots[slot_id]
        if slot.gen != gen:
            return  # killed by a crash; requeued there
        self.index.release(slot.node, slot.req)
        stats = self.stats[slot.tenant]
        stats.completions += 1
        stats.cpu_seconds += slot.busy * slot.req
        slot.live = False
        self._free.append(slot_id)
        self._live -= 1
        self._drain(self.env.now)
        self._note_pressure()

    def _on_edge(self, event: Event) -> None:
        self._occur()
        t, _seq, node, phase, fault = event._value
        if phase == 0:
            run.faults.record_push(fault, t)
            if node not in self.index.down:
                self._crash(node, t)
                self._drain(t)
        elif node in self.index.down:
            self.index.restore_node(node)
            self._drain(t)
        self._note_pressure()

    # -- the bodies ------------------------------------------------------------
    def _enqueue(self, k: int, arrival_t: float) -> None:
        self._pending.append((k, arrival_t))
        self._pending_peak = max(self._pending_peak, len(self._pending))

    def _drain(self, t: float) -> None:
        """Place queued starts head-first until the head no longer fits."""
        pending = self._pending
        while pending:
            k, arrival_t = pending[0]
            req = self._cpus[k]
            node = self.index.alloc(req)
            if node is None:
                return
            pending.popleft()
            self._place(k, arrival_t, t, node, req)

    def _place(self, k: int, arrival_t: float, t: float, node: int, req: int) -> None:
        tenant = self._tenants_local[k]
        image = self._images[k]
        digest = self.catalog.digests[image]
        stats = self.stats[tenant]
        if digest in self.node_images[node]:
            startup = self.config.warm_start_s
            self._warm_starts += 1
        else:
            try:
                startup, missing, _cost = self._cold_pull(tenant, image, node, t)
            except RetryExhausted:
                self.index.release(node, req)
                stats.failed += 1
                return
            self.node_layers[node].update(self.catalog.layer_digests[image])
            self.node_images[node].add(digest)
            stats.cold_pulls += 1
            stats.pulled_bytes += missing
            if run.metrics.enabled:
                run.metrics.inc("fleet.cold_pulls", tenant=f"t{self.tenant_ids[tenant]:05}")
        busy = startup + self._durations[k]
        end = t + busy
        if self._free:
            slot_id = self._free.pop()
        else:
            slot_id = len(self._slots)
            self._slots.append(_Slot())
        slot = self._slots[slot_id]
        slot.node, slot.req, slot.tenant, slot.busy, slot.k = node, req, tenant, busy, k
        slot.live = True
        self._live += 1
        self._live_peak = max(self._live_peak, self._live)
        self._schedule(end, self._on_completion, (slot_id, slot.gen), Environment.URGENT)
        self._makespan = max(self._makespan, end)
        stats.starts += 1
        wait = t - arrival_t
        if wait > 0.0:
            stats.wait_sum += wait
            stats.wait_max = max(stats.wait_max, wait)
        for b, bound in enumerate(_fleet.WAIT_BUCKETS):
            if wait <= bound:
                self._wait_hist[b] += 1
                break
        else:
            self._wait_hist[-1] += 1
        if run.metrics.enabled:
            run.metrics.inc("fleet.starts", tenant=f"t{self.tenant_ids[tenant]:05}")

    def _crash(self, node: int, t: float) -> None:
        """Kill every live slot on ``node`` (requeueing its start) and
        take the node out of the pool; its cores come back on restore."""
        killed = 0
        for slot_id, slot in enumerate(self._slots):
            if slot.live and slot.node == node:
                slot.live = False
                slot.gen += 1
                self._free.append(slot_id)
                self._enqueue(slot.k, t)
                killed += 1
        self._live -= killed
        self.index.remove_node(node)
        self._crashes += 1
        self._requeues += killed

    def _sample_timeseries(self, rec) -> None:
        """One sampler tick: every shard aggregate folded over the
        tenants (floats in tenant order, as the pump adds them)."""
        reg = run.metrics
        t = rec.sample(self.env.now, reg if reg.enabled else None)
        stats = self.stats
        starts = sum(st.starts for st in stats)
        cold = sum(st.cold_pulls for st in stats)
        failed = sum(st.failed for st in stats)
        wait_sum = 0.0
        for st in stats:
            wait_sum += st.wait_sum
        retries = self.result.retry_attempts
        values = (
            len(self._pending), self._live, starts, cold,
            (starts - cold) / starts if starts else 0.0,
            sum(st.pulled_bytes for st in stats),
            wait_sum / starts if starts else 0.0,
            max((st.wait_max for st in stats), default=0.0), self._quota_total,
            failed, len(self.index.down), self._requeues - self._last_requeues,
            failed - self._last_failed, retries - self._last_retries,
        )
        self._last_requeues = self._requeues
        self._last_failed = failed
        self._last_retries = retries
        shard = str(self.shard)
        for name, value in zip(_fleet._SHARD_SERIES, values):
            rec.record(name, t, value, shard=shard)
        if len(self.tenant_ids) > _fleet.TENANT_SERIES_MAX:
            return
        for gid, st in zip(self.tenant_ids, stats):
            n, tenant = st.starts, f"t{gid:05}"
            rec.record("fleet.tenant.starts", t, n, tenant=tenant)
            rec.record("fleet.tenant.cold_pulls", t, st.cold_pulls, tenant=tenant)
            rec.record("fleet.tenant.warm_rate", t,
                       (n - st.cold_pulls) / n if n else 0.0, tenant=tenant)
            rec.record("fleet.tenant.wait_mean", t,
                       st.wait_sum / n if n else 0.0, tenant=tenant)

    def _note_pressure(self) -> None:
        prof = run.counters
        if prof.enabled:
            env = self.env
            depth = len(env._queue) + len(env._immediate) + len(self._pending)
            if depth > prof.event_queue_peak:
                prof.event_queue_peak = depth
            live = self._live + len(self._pending)
            if live > prof.live_objects_peak:
                prof.live_objects_peak = live


def use_fleet_oracle(monkeypatch) -> None:
    """Make ``run_fleet`` (at ``jobs=1``) build oracle shard engines."""
    monkeypatch.setattr(_fleet, "FleetShardEngine", OracleFleetShardEngine)
