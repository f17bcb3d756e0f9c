"""The simulation environment: event queue, virtual clock, processes.

The queue is split into two structures sharing one sequence counter:

- a binary heap for events scheduled with a positive delay (true
  timeouts) or non-normal priority (interrupts), ordered by
  ``(time, priority, sequence)``;
- a FIFO deque for zero-delay normal events — by far the most common
  kind (``succeed``/``fail``, resource grants, process resumes).  These
  always fire at the *current* time, so FIFO order over the shared
  sequence counter reproduces the heap's total order exactly while
  skipping ``heapq`` cost entirely.

``step()`` merges the two by comparing the heap head's
``(time, priority, sequence)`` key against the deque front, so the
observable event order — and therefore every virtual-time result — is
bit-identical to a single-heap implementation.

Process resumes additionally bypass event allocation: instead of a
throwaway carrier :class:`Event` per resume, the queue carries a slotted
:class:`_Resume` record that invokes the generator directly.  A process
that sleeps (``yield env.sleep(d)``, or ``yield env.sleep_until(t)``
for an absolute time) queues such a record too, under the key an
``Event`` scheduled ``d`` from now (or at ``t``) would have drawn,
instead of an event with its callback list.

Reserved keys
-------------

A loop whose next record would do nothing unless something happens
first can *reserve* that record's key instead of queuing it:
:meth:`Environment.reserve` draws the sequence number the push would
have drawn and returns the ``(time, NORMAL, sequence)`` key.  If the
something happens before the key passes (:meth:`Environment.passed`),
:meth:`Environment.schedule_reserved` queues the record under exactly
that key, so it runs where it always would have; otherwise the record
never costs a queue entry.  A key has passed once the record in
progress sorts after it, ties resolved by the full key as the heap
would; after ``run(until=t)`` every key at or before ``t`` has passed,
and a draining ``run()`` moves the clock to the latest reserved time, as
the reserved record would have.
"""

from __future__ import annotations

import itertools
import typing as _t
from collections import deque
from heapq import heappop, heappush

from repro.sim.events import Event, Interrupt, SimulationError

ProcessGenerator = _t.Generator[Event, object, object]

#: ``Environment._seq_now`` once ``run(until=...)`` returns: every key at
#: or before the clock has passed
_ALL = float("inf")


class _Resume:
    """A queued process resume: cheaper than a carrier Event.

    ``process`` is whatever the record resumes through its
    ``_do_resume(value, exception)``: a :class:`Process`, or a
    :class:`~repro.sim.signal.Bell` that reuses one record for its whole
    life.  It is set to ``None`` to cancel the resume in place (used by
    :meth:`Process.interrupt` so a stale resume cannot fire after the
    interrupt already restarted the generator, and by
    :meth:`~repro.sim.signal.Signal.fire` for a park it wakes).

    A process waits on a record by yielding it: :meth:`Environment.sleep`,
    :meth:`Environment.sleep_until`, :meth:`~repro.sim.signal.Signal.park`
    and :meth:`~repro.sim.resources.Resource.request` return the record
    they queued or registered as the process's pending resume.
    """

    __slots__ = ("process", "value", "exception")

    def __init__(self, process: "Process", value: object, exception: BaseException | None):
        self.process = process
        self.value = value
        self.exception = exception


class Environment:
    """Owns the virtual clock and the pending-event queue.

    Events are processed in ``(time, priority, sequence)`` order; the
    sequence number makes simultaneous events FIFO and the whole
    simulation deterministic.
    """

    #: priority for normal events; interrupts use URGENT so that an
    #: interrupt scheduled at time t pre-empts same-time normal events.
    NORMAL = 1
    URGENT = 0

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: delayed / urgent events: heap of (time, priority, seq, item)
        self._queue: list[tuple[float, int, int, Event | _Resume]] = []
        #: zero-delay normal events at the current time: FIFO of (seq, item)
        self._immediate: deque[tuple[int, Event | _Resume]] = deque()
        self._counter = itertools.count()
        #: sequence number of the record in progress (see passed()):
        #: -1 for an URGENT one, _ALL once run(until=...) has returned
        self._seq_now: float = -1
        #: the latest reserved key, for drains and drained()
        self._reserved: tuple[float, int, int] = (float("-inf"), 1, -1)
        self._active_process: Process | None = None
        # imported here: repro.run imports repro.sim.profile, which
        # initializes this package first
        from repro.run import run

        self._profile = run.counters
        if run.tracer.enabled:
            # Adopt this environment's virtual clock and active-process
            # tracking for span timestamps/thread rows (last env wins).
            run.tracer.attach(self)

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> "Process | None":
        return self._active_process

    # -- event construction helpers ---------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Event:
        """An event that triggers ``delay`` from now with ``value``.

        For an event stored or waited on by others; a process that only
        waits uses :meth:`sleep`, which queues under the same key.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        event = Event(self)
        event._value = value
        self._schedule(event, delay)
        return event

    def sleep(self, delay: float) -> _Resume:
        """Resume the active process ``delay`` from now.

        A yielded ``env.sleep(d)`` runs key for key as a yielded
        ``env.timeout(d)`` does: one ``_Resume`` record is queued under
        the key the timeout would have drawn (the immediate FIFO for a
        zero delay, the heap otherwise) and counted as the timeout's
        push was, but no Event or callback list is built.  The returned
        record must be yielded at once; the yield delivers ``None``.  An
        interrupt cancels the record in place; it still pops, as an
        abandoned timeout did.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        process = self._active_process
        if process is None:
            raise SimulationError("sleep() must be called from a running process")
        resume = _Resume(process, None, None)
        if delay == 0.0:
            immediate = True
            self._immediate.append((next(self._counter), resume))
        else:
            immediate = False
            heappush(self._queue, (self._now + delay, 1, next(self._counter), resume))
        process._pending_resume = resume
        prof = self._profile
        if prof.enabled:
            self._count_push(prof, immediate)
        return resume

    def sleep_until(self, when: float) -> _Resume:
        """Resume the active process at the **absolute** virtual time
        ``when``: :meth:`sleep`'s twin for tickless loops.

        The record is queued at exactly ``when`` (the immediate FIFO if
        that is now, the heap otherwise), with no float round-trip
        through a delay, which those loops rely on to land precisely on
        a poll-grid boundary another process (or a previous incarnation
        of the same loop) computed by sequential addition.  A ``when``
        before now, or NaN, raises ``ValueError``.
        """
        when = float(when)
        if not when >= self._now:
            raise ValueError(f"until={when} is not at or after now={self._now}")
        process = self._active_process
        if process is None:
            raise SimulationError("sleep_until() must be called from a running process")
        resume = _Resume(process, None, None)
        self._schedule_at(resume, when)
        process._pending_resume = resume
        return resume

    def process(self, generator: ProcessGenerator, name: str | None = None) -> "Process":
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------
    def _schedule(
        self, event: "Event | _Resume", delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        if delay == 0.0 and priority == 1:
            immediate = True
            self._immediate.append((next(self._counter), event))
        else:
            immediate = False
            heappush(self._queue, (self._now + delay, priority, next(self._counter), event))
        prof = self._profile
        if prof.enabled:
            # _count_push, inline: every succeed and timeout pushes here
            prof.events_scheduled += 1
            if immediate:
                prof.immediate_pushes += 1
            else:
                prof.heap_pushes += 1
            depth = len(self._queue) + len(self._immediate)
            if depth > prof.peak_queue_depth:
                prof.peak_queue_depth = depth

    def _schedule_at(
        self, event: "Event | _Resume", when: float, priority: int = NORMAL
    ) -> None:
        """Schedule ``event`` at the absolute virtual time ``when``."""
        if when == self._now and priority == 1:
            immediate = True
            self._immediate.append((next(self._counter), event))
        else:
            immediate = False
            heappush(self._queue, (when, priority, next(self._counter), event))
        prof = self._profile
        if prof.enabled:
            self._count_push(prof, immediate)

    def _schedule_resume(
        self,
        process: "Process",
        value: object,
        exception: BaseException | None,
        priority: int = NORMAL,
    ) -> _Resume:
        """Queue a direct process resume without allocating a carrier Event."""
        resume = _Resume(process, value, exception)
        if priority == 1:
            immediate = True
            self._immediate.append((next(self._counter), resume))
        else:
            immediate = False
            heappush(self._queue, (self._now, priority, next(self._counter), resume))
        prof = self._profile
        if prof.enabled:
            prof.direct_resumes += 1
            self._count_push(prof, immediate)
        return resume

    def _count_push(self, prof, immediate: bool) -> None:
        prof.events_scheduled += 1
        if immediate:
            prof.immediate_pushes += 1
        else:
            prof.heap_pushes += 1
        depth = len(self._queue) + len(self._immediate)
        if depth > prof.peak_queue_depth:
            prof.peak_queue_depth = depth

    # -- reserved keys ------------------------------------------------------
    def reserve(self, delay: float = 0.0) -> tuple[float, int, int]:
        """The key a NORMAL record pushed ``delay`` from now would get,
        drawing its sequence number, without queuing anything."""
        key = (self._now + delay, 1, next(self._counter))
        if key[0] >= self._reserved[0]:
            self._reserved = key
        return key

    def passed(self, key: tuple[float, int, int]) -> bool:
        """Whether a record under the reserved ``key`` would already have
        run: the record in progress sorts after it."""
        when = key[0]
        now = self._now
        return when < now or (when == now and key[2] < self._seq_now)

    def schedule_reserved(self, record: "Event | _Resume", key: tuple[float, int, int]) -> None:
        """Queue ``record`` under a :meth:`reserve` key that has not passed."""
        heappush(self._queue, (key[0], key[1], key[2], record))
        prof = self._profile
        if prof.enabled:
            self._count_push(prof, False)

    def drained(self) -> bool:
        """Nothing is queued and no reserved key is still to pass."""
        return not self._queue and not self._immediate and self.passed(self._reserved)

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if queue is empty."""
        if self._immediate:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        immediate = self._immediate
        queue = self._queue
        from_heap = True
        if immediate:
            # Merge point: a heap entry wins only if its (time, priority,
            # sequence) key sorts before the deque front, which sits at
            # (self._now, NORMAL, front_seq).
            use_heap = False
            if queue:
                head = queue[0]
                if head[0] == self._now:
                    prio = head[1]
                    use_heap = prio < 1 or (prio == 1 and head[2] < immediate[0][0])
            if use_heap:
                when, prio, seq, item = heappop(queue)
                self._now = when
                self._seq_now = seq if prio == 1 else -1
            else:
                from_heap = False
                self._seq_now, item = immediate.popleft()
        elif queue:
            when, prio, seq, item = heappop(queue)
            self._now = when
            self._seq_now = seq if prio == 1 else -1
        else:
            raise SimulationError("step() on empty event queue")
        prof = self._profile
        if prof.enabled:
            prof.events_processed += 1
            if from_heap:
                prof.heap_pops += 1
            else:
                prof.immediate_pops += 1

        if item.__class__ is _Resume:
            process = item.process
            if process is not None:  # None == cancelled by interrupt()
                process._do_resume(item.value, item.exception)
            return
        callbacks, item.callbacks = item.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(item)
        if item._exception is not None and not item.defused:
            raise item._exception

    def run(self, until: "float | Event | None" = None) -> object:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain), a number (absolute virtual
        time), or an :class:`Event` (run until it is processed, returning
        its value).
        """
        immediate = self._immediate
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            if stop.processed:
                return stop.value
            sentinel: list[bool] = []
            if stop.callbacks is None:
                raise SimulationError("cannot run until an in-flight event")
            stop.callbacks.append(lambda _ev: sentinel.append(True))
            # A failed `until` event must surface its exception to the
            # caller even if a waiter defused it inside the simulation.
            while (immediate or queue) and not sentinel:
                self.step()
            if not sentinel:
                raise SimulationError("event queue drained before `until` event fired")
            return stop.value
        deadline = float("inf") if until is None else float(until)
        if deadline != float("inf") and deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        while immediate or queue:
            if not immediate and queue[0][0] > deadline:
                break
            self.step()
        if deadline != float("inf"):
            self._now = deadline
        elif self._reserved[0] > self._now:
            self._now = self._reserved[0]
        self._seq_now = _ALL
        return None


class Process(Event):
    """A generator-driven simulation process.

    The process itself is an event: it triggers with the generator's
    return value when the generator finishes, so processes can wait on
    each other by yielding the target process.
    """

    __slots__ = ("_generator", "name", "_target", "_pending_resume")

    def __init__(self, env: Environment, generator: ProcessGenerator, name: str | None = None):
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        if env._profile.enabled:
            env._profile.processes_spawned += 1
        # Bootstrap: resume the generator at the current simulation time.
        self._pending_resume: _Resume | None = env._schedule_resume(self, None, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever it was waiting on so the stale resume
        # callback does not fire later.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        if self._pending_resume is not None:
            self._pending_resume.process = None
            self._pending_resume = None
        self.env._schedule_resume(self, None, Interrupt(cause), priority=Environment.URGENT)

    # -- internals ----------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Callback form: resume with a real event's value/exception."""
        if trigger._exception is not None:
            trigger.defused = True
        self._do_resume(trigger._value, trigger._exception)

    def _do_resume(self, value: object, exception: BaseException | None) -> None:
        self._pending_resume = None
        target = self._target
        if target is not None:
            # Normally `target` is the event now being processed (its
            # callbacks are already detached).  But a second interrupt
            # queued while the first was in flight fires *after* the
            # process re-attached to a new event — detach that stale
            # callback or the process would later be resumed twice.
            self._target = None
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        env = self.env
        env._active_process = self
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None

        if target.__class__ is _Resume:
            return  # a sleep, a park or a grant set _pending_resume
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        if target.env is not env:
            raise SimulationError("process yielded an event from a different environment")
        self._target = target
        if target.callbacks is None:
            # Already processed: resume immediately (next queue slot)
            # without a carrier Event.  The exception, if any, was already
            # defused when the target itself was processed.
            self._pending_resume = env._schedule_resume(self, target._value, target._exception)
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
