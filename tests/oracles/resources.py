"""Reference for ``repro.sim.Resource``: the Event-based resource whose
grants it queues as ``_Resume`` records.

A request here is a ``Request`` event the process yields: ``succeed()``
queues it at the request when a slot is free, or at the ``release``
that frees one, and the process resumes through its callback.  An
interrupt detaches that callback; the event keeps its slot and still
pops at its key.  ``Resource`` queues a record under the same keys and
is held to this class key for key.
"""

from __future__ import annotations

import collections

from repro.sim import Environment, Event, SimulationError


class Request(Event):
    """Event returned by :meth:`ReferenceResource.request`; triggers on
    grant."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "ReferenceResource"):
        super().__init__(env)
        self.resource = resource


class ReferenceResource:
    """``Resource``'s ``request``/``release``/``count`` over events."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: collections.deque[Request] = collections.deque()

    @property
    def count(self) -> int:
        return len(self._users)

    def request(self) -> Request:
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        if request not in self._users:
            raise SimulationError("release of a request that does not hold the resource")
        self._users.discard(request)
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()
