"""Tickless wakeups: the :class:`Signal` and :class:`Bell` primitives
and tick alignment.

PR 1 made every *processed* event cheap; the remaining cost was that
periodic control loops (kubelet syncs, controller reconciles, scenario
provisioning pollers) *generate* events at a fixed rate whether or not
there is work — the simulated version of the "wasteful per-node daemon"
pattern the paper's §3.2 criticizes.  A :class:`Signal` lets such a loop
go **tickless**: when it observes no pending work it parks, and the
producers that create work (pod binds, API object writes, job state
changes) fire the signal to wake it.

There is one way to wait on a signal, ``park(deadline)``.  It registers
the *active process* against a slotted ``_Resume`` queue record: with a
deadline (an **absolute** virtual time) the record is the one
``Environment.sleep_until(deadline)`` queues, with ``None`` it is only
registered.  The returned record must be yielded at once.  ``fire()`` cancels each live
registration's record in place and queues the process's resume with
:data:`Signal.FIRED`, so a signal-woken process resumes in exactly the
queue slot a hand-rolled wakeup event would have used; a deadline that
passes first resumes it with ``None``.  An interrupt cancels the record
in place, through the process's pending resume, and a later fire skips
it.  A cancelled deadline record still pops at its key.  A fire that
finds nobody parked is lost.

The kubelet's idle heartbeat chain (``repro.k8s.kubelet``) parks its own
record, which runs the chain instead of resuming a generator, in the
same registry against its ``_main`` process: a fire resumes ``_main``
as it would a parked process.

Tick alignment
--------------

A converted loop must keep every observable virtual time bit-identical
to the polling version it replaces.  The ``k``-th wake time of a
``yield sleep(interval)`` spinner starting at ``epoch`` is the
sequential sum ``epoch + interval + ... + interval``; :func:`grid_tick`
returns it, in one step where every partial addition is provably exact
(so the one-step sum is the sequential one) and by replaying the
additions otherwise, so the result is bit-identical even where
``epoch + k*interval`` rounds differently.  :func:`next_tick` finds the
first such tick after an event at time ``after`` (the kubelet's idle
park finds the first one due for a heartbeat the same way): it
estimates the tick count in reals and checks it against the sums,
replaying the spinner on a miss.  The woken loop then sleeps until that
boundary (``Environment.sleep_until``) and runs its body there,
indistinguishable from a loop that never stopped polling — except for
the thousands of idle heap events it no longer schedules (counted in
``run.counters.poll_ticks_skipped``).

Scheduler passes
----------------

A :class:`Bell` is the coalescing "ring → wake → sleep → pass" loop of
both schedulers (``K8sScheduler``, ``SlurmController``) as a callback
chain: it queues the generator loop's records through one reused record
object, so a pass allocates nothing beyond its queue entries.  Given an
``idle`` predicate, a wake whose pass would do nothing reserves the
sleep record's key (:meth:`Environment.reserve`) instead of queuing it,
and queues it under that key only if a ring comes before the key
passes.  ``tests/oracles/k8s.py`` keeps the loop, running every pass, as
the bell's reference.
"""

from __future__ import annotations

import typing as _t
from math import ulp

from repro.sim.environment import Environment, Process, _Resume
from repro.sim.events import SimulationError


#: ``epoch`` must sit below this many intervals for :func:`grid_tick`'s
#: one-step sum
_TWO52 = 2.0**52


class _Fired:
    """Sentinel delivered to a parked process woken by ``fire()``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<Signal.FIRED>"


def grid_tick(epoch: float, interval: float, k: int) -> float:
    """The ``k``-th tick ``epoch + interval + ... + interval`` (``k``
    intervals, added left to right) of the grid a ``yield
    sleep(interval)`` loop starting at ``epoch`` wakes on.

    The sum is taken in one step, ``epoch + k*interval``, only when
    every partial addition is provably exact: ``interval`` is a multiple
    of ``ulp(epoch)``, ``epoch < 2**52 * interval``, and the sum stays in
    ``epoch``'s binade (it has ``epoch``'s ulp).  Then every partial sum
    is a multiple of that ulp below the binade's top, so representable,
    and the one-step sum equals the sequential one bit for bit.
    Otherwise (a sum that crosses a power of two, an interval such as
    0.1 that is not a multiple of the ulp) the additions are replayed.
    """
    tick = epoch + k * interval
    if 0.0 < epoch < _TWO52 * interval:
        unit = ulp(epoch)
        if ulp(tick) == unit and interval % unit == 0.0:
            return tick
    tick = epoch
    for _ in range(k):
        tick += interval
    return tick


def next_tick(epoch: float, interval: float, after: float) -> tuple[float, int]:
    """First tick boundary strictly after ``after`` on the grid a
    ``yield sleep(interval)`` loop starting at ``epoch`` would produce.

    The boundary is bit-identical to the polling loop's wake time even
    where float rounding makes ``epoch + k*interval`` differ: it is the
    loop's own sum (:func:`grid_tick`).  Returns ``(boundary, skipped)``
    where ``skipped`` counts the idle polls the spinner would have
    executed in ``(epoch, after]``.

    "Strictly after" mirrors event-queue sequence order: a state change
    landing exactly on a boundary was produced by an event scheduled
    *later* than the spinner's tick for that boundary, so the spinner
    would only have observed it one interval later.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    t = epoch + interval
    if not t <= after:
        return t, 0
    # the grid index estimated in reals, then checked on the loop's sums
    skipped = int((after - epoch) // interval)
    prev = grid_tick(epoch, interval, skipped)
    t = prev + interval
    if prev <= after < t:
        return t, skipped
    t = epoch + interval
    skipped = 0
    while t <= after:
        t += interval
        skipped += 1
    return t, skipped


def count_skipped_ticks(env: Environment, n: int) -> None:
    """Record ``n`` avoided idle polls in ``env``'s profiling counters."""
    counters = env._profile
    if counters.enabled and n:
        counters.poll_ticks_skipped += n


class Signal:
    """A multi-waiter wakeup for tickless control loops."""

    #: value delivered to a parked process woken by :meth:`fire`
    FIRED: _t.ClassVar[_Fired] = _Fired()

    __slots__ = ("env", "_parked")

    def __init__(self, env: Environment):
        self.env = env
        #: park record -> parked process
        self._parked: dict[_Resume, Process] = {}

    @property
    def waiting(self) -> int:
        """Number of park registrations."""
        return len(self._parked)

    def park(self, deadline: float | None = None) -> _Resume:
        """Park the active process until :meth:`fire` or ``deadline``.

        The caller **must immediately yield the returned record**.  The
        yield delivers :data:`Signal.FIRED` if the signal woke the
        process and ``None`` if the (absolute virtual time) deadline
        passed.  Call :meth:`unpark` with the record after waking.
        """
        env = self.env
        if deadline is not None:
            record = env.sleep_until(deadline)
            process = record.process
        else:
            process = env._active_process
            if process is None:
                raise SimulationError("park() must be called from a running process")
            record = _Resume(process, None, None)
            process._pending_resume = record
        self._parked[record] = process
        prof = env._profile
        if prof.enabled:
            prof.parked_processes += 1
        return record

    def unpark(self, token: _Resume) -> bool:
        """Drop a park registration (idempotent); call after waking."""
        return self._parked.pop(token, None) is not None

    def fire(self) -> int:
        """Resume every parked process with :data:`Signal.FIRED`;
        returns how many were woken."""
        if not self._parked:
            return 0
        parked, self._parked = self._parked, {}
        env = self.env
        woken = 0
        for record, process in parked.items():
            # A registration is stale once its record is no longer the
            # process's pending resume: the deadline passed, the process
            # moved on, or an interrupt cancelled the record.
            if process._pending_resume is not record:
                continue
            record.process = None  # type: ignore[assignment]
            process._pending_resume = env._schedule_resume(process, Signal.FIRED, None)
            woken += 1
        if woken:
            prof = env._profile
            if prof.enabled:
                prof.wakeups_fired += woken
        return woken

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Signal waiting={self.waiting}>"


class Bell:
    """A coalescing pass loop: ring → zero-delay wake → sleep → pass.

    Record for record the generator loop ::

        while True:
            yield latching_signal.wait()
            yield env.sleep(latency)
            on_pass()

    started as a process at construction.  Its rules:

    - a ring while the loop is idle queues a zero-delay wake, and the
      wake queues the ``latency`` sleep whose record runs ``on_pass``;
    - a ring while a ring-queued wake is pending is absorbed;
    - a ring before the boot record runs, while a latch-queued wake is
      pending, while the sleep is pending or during ``on_pass`` latches
      one more pass: the next wake is queued when the boot record or
      the pass ends.

    Empty passes: when ``idle()`` says a pass would do nothing and no
    ring is latched, the wake reserves the sleep record's key
    (:meth:`Environment.reserve`) instead of queuing the record.  A ring
    before that key passes queues the record under it and latches, as a
    ring during the sleep does; a ring after it finds the loop idle.  So
    every pass that does something runs at the loop's time from the
    loop's key, and an empty one costs no queue record.

    ``on_pass`` runs with the bell as the environment's active process,
    so the tracer puts its records on one thread row named ``name``.
    """

    _BOOT, _IDLE, _RUNG, _LATCHED, _BUSY, _GHOST = range(6)

    __slots__ = (
        "env", "name", "latency", "_on_pass", "_idle", "_state", "_again", "_record",
        "_key",
    )

    def __init__(
        self,
        env: Environment,
        latency: float,
        on_pass: _t.Callable[[], object],
        name: str = "bell",
        idle: _t.Callable[[], bool] | None = None,
    ):
        self.env = env
        self.name = name
        self.latency = latency
        self._on_pass = on_pass
        #: whether a pass would do nothing now (None: every pass runs)
        self._idle = idle
        self._state = Bell._BOOT
        #: a latched ring: one more pass is owed once the current step ends
        self._again = False
        #: the one queue record the bell ever has in flight, reused
        self._record = _Resume(self, None, None)  # type: ignore[arg-type]
        #: the reserved key of an empty pass's sleep record
        self._key: tuple[float, int, int] | None = None
        env._schedule(self._record)

    def ring(self) -> None:
        """Ask for a pass (see the class docstring for coalescing)."""
        state = self._state
        if state == Bell._GHOST:
            env = self.env
            if not env.passed(self._key):  # type: ignore[arg-type]
                self._state = Bell._BUSY
                self._again = True
                env.schedule_reserved(self._record, self._key)  # type: ignore[arg-type]
                return
            state = Bell._IDLE  # the empty pass is over
        if state == Bell._IDLE:
            self._state = Bell._RUNG
            self.env._schedule(self._record)
        elif state != Bell._RUNG:
            self._again = True

    def _do_resume(self, _value: object, _exception: object) -> None:
        """The record ran (the environment's ``_Resume`` dispatch)."""
        state = self._state
        if state == Bell._RUNG or state == Bell._LATCHED:
            idle = self._idle
            if idle is not None and not self._again and idle():
                self._state = Bell._GHOST
                self._key = self.env.reserve(self.latency)
            else:
                self._state = Bell._BUSY
                self.env._schedule(self._record, self.latency)
            return
        if state == Bell._BUSY:
            env = self.env
            env._active_process = self  # type: ignore[assignment]
            try:
                self._on_pass()
            finally:
                env._active_process = None
        # boot, or the pass ended: wait for the next ring
        if self._again:
            self._again = False
            self._state = Bell._LATCHED
            self.env._schedule(self._record)
        else:
            self._state = Bell._IDLE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Bell {self.name!r} state={self._state} again={self._again}>"
