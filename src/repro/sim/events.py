"""Event primitives for the discrete-event simulator.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes
(see :mod:`repro.sim.environment`) wait on events by yielding them; when
the event *triggers*, every waiting process is resumed with the event's
value (or has the event's exception thrown into it if the event *failed*).
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation API (double trigger, etc.)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary, caller-supplied payload
    describing why the interrupt happened (e.g. job preemption).
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet set" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Events move through three states: *pending* (created, not yet
    triggered), *triggered* (scheduled in the event queue), and
    *processed* (callbacks have run).  ``succeed``/``fail`` transition a
    pending event to triggered.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: object = _PENDING
        self._exception: BaseException | None = None
        # ``defused`` marks a failed event whose exception was consumed by a
        # waiter; undefused failures crash the simulation at processing time
        # so errors never pass silently.
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def value(self) -> object:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- transitions ------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

