"""Reference for ``repro.sim.Signal``: the token-``Event`` park it
replaced.

A park here is an ``Event`` the process yields: an :func:`event_at` at
the deadline, or an event that never triggers.  A fire detaches the
process's resume callback from its token and queues the resume with
:data:`Signal.FIRED`; a deadline token that passes first resumes the
process with ``None``, and one abandoned by a fire or an interrupt still
pops at its key.  ``Signal`` parks a ``_Resume`` record instead and is
held to this class key for key.

:func:`event_at` is the same token as a plain wait: the absolute-time
``Event`` that ``Environment.sleep_until`` queues a ``_Resume`` record
in place of, and is held to.
"""

from __future__ import annotations

from repro.sim import Environment, Event, Process, Signal, SimulationError


def event_at(env: Environment, when: float) -> Event:
    """An ``Event`` that triggers at exactly the absolute virtual time
    ``when`` (the immediate FIFO if that is now, the heap otherwise);
    a ``when`` before now, or NaN, raises ``ValueError``."""
    when = float(when)
    if not when >= env.now:
        raise ValueError(f"until={when} is in the past (now={env.now})")
    event = Event(env)
    event._value = None
    env._schedule_at(event, when)
    return event


class ReferenceSignal:
    """``Signal``'s ``park``/``unpark``/``fire``/``waiting`` over
    token events."""

    FIRED = Signal.FIRED

    def __init__(self, env: Environment):
        self.env = env
        #: token event -> parked process
        self._parked: dict[Event, Process] = {}

    @property
    def waiting(self) -> int:
        return len(self._parked)

    def park(self, deadline: float | None = None) -> Event:
        process = self.env.active_process
        if process is None:
            raise SimulationError("park() must be called from a running process")
        if deadline is None:
            token = Event(self.env)
        else:
            token = event_at(self.env, deadline)
        self._parked[token] = process
        prof = self.env._profile
        if prof.enabled:
            prof.parked_processes += 1
        return token

    def unpark(self, token: Event) -> bool:
        return self._parked.pop(token, None) is not None

    def fire(self) -> int:
        woken = 0
        if self._parked:
            parked, self._parked = self._parked, {}
            env = self.env
            for token, process in parked.items():
                # Stale registrations (deadline already fired, process
                # interrupted away) no longer target their token.
                if process._target is not token or token.callbacks is None:
                    continue
                try:
                    token.callbacks.remove(process._resume)
                except ValueError:
                    continue
                process._pending_resume = env._schedule_resume(process, Signal.FIRED, None)
                woken += 1
        if woken:
            prof = self.env._profile
            if prof.enabled:
                prof.wakeups_fired += woken
        return woken
