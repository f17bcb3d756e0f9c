"""Shared resources for simulation processes: :class:`Resource`, a
fixed-capacity resource with a FIFO wait queue (models e.g. a metadata
server's request slots)."""

from __future__ import annotations

import collections
import typing as _t

from repro.sim.events import Event, SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Request(Event):
    """Event returned by :meth:`Resource.request`; triggers on grant."""

    __slots__ = ("resource",)

    def __init__(self, env: "Environment", resource: "Resource"):
        super().__init__(env)
        self.resource = resource


class Resource:
    """Fixed-capacity resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        ...  # hold the slot
        resource.release(req)
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: collections.deque[Request] = collections.deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
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
