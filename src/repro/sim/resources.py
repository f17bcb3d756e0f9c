"""Shared resources for simulation processes: :class:`Resource`, a
fixed-capacity resource with a FIFO wait queue (models e.g. a metadata
server's request slots).

A grant is a ``_Resume`` queue record, the fourth way a process waits
on one after a sleep, a deadline sleep and a :class:`~repro.sim.Signal`
park.  :meth:`Resource.request` registers the record as the active
process's pending resume and queues it under exactly the key an
``Event`` granted there would have drawn: at the request when a slot is
free, at the :meth:`Resource.release` that frees one otherwise, and
counted as ``Environment._schedule`` counts every push.  An interrupt
cancels a waiting or queued grant in place; the grant keeps its slot,
as an interrupted request always has.  A request made outside a process
gets a grant that resumes nobody.  ``tests/oracles/resources.py`` keeps
the Event-based resource as the reference the records are held to.
"""

from __future__ import annotations

import collections
import typing as _t

from repro.sim.environment import _Resume
from repro.sim.events import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment


class Resource:
    """Fixed-capacity resource with FIFO granting.

    Usage from a process (the grant must be yielded at once; the yield
    delivers ``None``)::

        grant = resource.request()
        yield grant
        ...  # hold the slot
        resource.release(grant)
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[_Resume] = set()
        self._waiting: collections.deque[_Resume] = collections.deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    def request(self) -> _Resume:
        env = self.env
        process = env._active_process
        grant = _Resume(process, None, None)  # type: ignore[arg-type]
        if process is not None:
            process._pending_resume = grant
        if len(self._users) < self.capacity:
            self._users.add(grant)
            env._schedule(grant)
        else:
            self._waiting.append(grant)
        return grant

    def release(self, grant: _Resume) -> None:
        if grant not in self._users:
            raise SimulationError("release of a request that does not hold the resource")
        self._users.discard(grant)
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            self.env._schedule(nxt)
