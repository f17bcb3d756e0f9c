"""One simulator event per occurrence: the reference for the fleet pump.

:class:`OracleFleetShardEngine` runs a fleet shard the slow, obvious
way.  Every fault edge, arrival and completion is its own simulator
event, and placement goes through :class:`LinearCapacityScan`.  The
placement, pull and bookkeeping code (``_arrive``, ``_place``,
``_complete``, the crash/restore edges) is the production engine's own;
only the clock differs.  Tie order comes from the simulator itself:
fault edges are URGENT and scheduled first, completions are URGENT and
scheduled as they are placed, arrivals are NORMAL.  The epoch pump's
three-stream merge must reproduce exactly that order.
"""

from __future__ import annotations

from repro.sim import Environment
from repro.sim import profile as _profile
from repro.sim.events import Event
from repro.workload import fleet as _fleet

from tests.oracles.capacity import LinearCapacityScan


class _CompletionEvents:
    """Stands in for the pump's per-epoch completion calendar.

    ``_place`` files each completion record with ``calendar.get(epoch)``
    (always None here) followed by ``calendar[epoch] = [record]``; this
    turns the record into an URGENT event at its end time instead.
    """

    def __init__(self, engine: "OracleFleetShardEngine"):
        self.engine = engine

    def get(self, epoch: int) -> None:
        return None

    def __setitem__(self, epoch: int, records: list[tuple]) -> None:
        for record in records:
            self.engine._schedule(record[0], self.engine._on_completion, record,
                                  Environment.URGENT)


class OracleFleetShardEngine(_fleet.FleetShardEngine):
    def __init__(self, env, config, shard, plan=None):
        super().__init__(env, config, shard, plan=plan)
        self.index = LinearCapacityScan(self.n_nodes, config.node_cpus)
        self._calendar = _CompletionEvents(self)
        for edge in self._fault_edges:
            self._schedule(edge[0], self._on_edge, edge, Environment.URGENT)
        self._edge_i = len(self._fault_edges)
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

    def _on_arrival(self, event: Event) -> None:
        k = event._value
        self._arrive(k, self._times[k])
        self._note_pressure()

    def _on_completion(self, event: Event) -> None:
        end, _seq, slot, gen = event._value
        if self._slot_gen[slot] != gen:
            return  # slot killed by a crash; counted at kill time
        self._cal_size -= 1
        self._complete(slot, end)
        self._note_pressure()

    def _on_edge(self, event: Event) -> None:
        self._deliver_edge(event._value)
        self._note_pressure()

    def _note_pressure(self) -> None:
        prof = _profile.counters
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
