"""Tests for the tickless wakeup primitive (`repro.sim.signal`).

The ordering tests mirror the interrupt-race tests in
``test_edge_cases.py``: a Signal wakeup must land in exactly the queue
slot a hand-rolled wakeup event would have used, because the tickless
control loops rely on that to keep virtual-time results bit-identical.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Bell, Environment, Signal, next_tick
from repro.sim.environment import _Resume
from repro.sim.events import SimulationError
from repro.sim.signal import grid_tick

from tests.oracles.k8s import ReferenceBell


# -- fan-out and lost fires ----------------------------------------------------

def test_fire_wakes_multiple_waiters_in_order():
    env = Environment()
    sig = Signal(env)
    log = []

    def waiter(env, tag):
        token = sig.park()
        got = yield token
        sig.unpark(token)
        log.append((tag, got is Signal.FIRED, env.now))

    def producer(env):
        yield env.timeout(3)
        assert sig.waiting == 3
        woken = sig.fire()
        assert woken == 3

    for tag in ("a", "b", "c"):
        env.process(waiter(env, tag))
    env.process(producer(env))
    env.run()
    # all three wake at the fire time, in registration order
    assert log == [("a", True, 3.0), ("b", True, 3.0), ("c", True, 3.0)]


def test_fire_with_no_waiters_is_lost_without_latch():
    env = Environment()
    sig = Signal(env)
    assert sig.fire() == 0
    log = []

    def late_waiter(env):
        token = sig.park()
        got = yield token
        log.append(got)

    env.process(late_waiter(env))
    env.run()
    assert log == []  # the pre-registration fire was not remembered
    assert sig.waiting == 1


# -- Bell: the coalescing scheduler-pass loop -----------------------------------

def test_bell_ring_before_boot_latches():
    """A ring before the bell's boot record runs is not lost: the boot
    queues the wake, and a later live ring gets its own pass."""
    env = Environment()
    passes = []
    bell = Bell(env, 1.0, lambda: passes.append(env.now))
    bell.ring()  # boot record still queued

    def producer(env):
        yield env.timeout(2)
        bell.ring()

    env.process(producer(env))
    env.run()
    # the latched ring's pass at 0 + latency, the live one at 2 + latency
    assert passes == [1.0, 3.0]


def test_bell_absorbs_rings_while_rung_wake_pending():
    """Two rings in the same instant == one ring: the second lands while
    the first's wake record is still queued, so it is absorbed rather
    than latched for one more pass."""
    env = Environment()
    passes = []
    bell = Bell(env, 1.0, lambda: passes.append(env.now))

    def producer(env):
        yield env.timeout(5)
        bell.ring()
        bell.ring()  # same instant, wake not yet run: absorbed

    env.process(producer(env))
    env.run(until=20)
    assert passes == [6.0]  # one pass, not two


def test_bell_ring_with_no_pass_pending_is_never_lost():
    """Unlike a plain Signal fire, a ring with nothing waiting always
    gets a pass: an idle bell queues its wake at once."""
    env = Environment()
    passes = []
    bell = Bell(env, 0.5, lambda: passes.append(env.now))
    env.run(until=3)  # boot ran long ago; the bell idles

    def producer(env):
        yield env.timeout(1)
        bell.ring()

    env.process(producer(env))
    env.run()
    assert passes == [4.5]


def test_bell_ring_during_sleep_or_pass_latches_one_more_pass():
    env = Environment()
    passes = []

    def on_pass():
        passes.append(env.now)
        if len(passes) == 1:
            bell.ring()  # during the pass
            bell.ring()  # ... twice: still one more pass

    bell = Bell(env, 1.0, on_pass)

    def producer(env):
        yield env.timeout(1)
        bell.ring()
        yield env.timeout(0.5)
        bell.ring()  # during the sleep: latched, then absorbed by the pass's ring

    env.process(producer(env))
    env.run()
    assert passes == [2.0, 3.0]


def test_bell_ring_while_latched_wake_pending_latches_again():
    """A wake queued for a latched ring does not absorb the next ring
    (the loop it replaces kept no record of it), so a ring between the
    pass's end and that wake owes yet another pass."""
    env = Environment()
    passes = []

    def on_pass():
        passes.append(env.now)
        if len(passes) == 1:
            bell.ring()  # latched: the latch's wake is queued as the pass ends
            env.process(ring_now(env))

    def ring_now(env):
        bell.ring()  # runs before the latched wake does
        yield env.timeout(0)

    bell = Bell(env, 1.0, on_pass)
    bell.ring()
    env.run()
    assert passes == [1.0, 2.0, 3.0]


def test_bell_pass_runs_on_its_own_thread_row():
    env = Environment()
    seen = []
    bell = Bell(env, 1.0, lambda: seen.append(env.active_process), name="kube-scheduler")
    bell.ring()
    env.run()
    assert seen == [bell] and bell.name == "kube-scheduler"
    assert env.active_process is None


# -- Bell: empty passes reserve their key ------------------------------------

def _run_ghost_bell(bell_cls, script, until=None, then=None):
    """Drive a 1.0 s bell whose pass has work only after an ``add`` ring.

    ``script`` is a list of (delay, op) steps for a producer process, op
    one of ``"ring"`` (ring, nothing to do), ``"add"`` (work, then ring)
    or ``"yield0"`` (a zero-delay yield).  With ``until`` the run stops
    there, ``then`` runs outside the simulation, and a drain follows.
    Returns the passes that had work (time, work), every pass time, and
    the clock after the drain."""
    env = Environment()
    work, busy, passes = [], [], []

    def on_pass():
        passes.append(env.now)
        if work:
            busy.append((env.now, tuple(work)))
            work.clear()

    bell = bell_cls(env, 1.0, on_pass, idle=lambda: not work)

    def producer(env):
        for delay, op in script:
            yield env.timeout(delay)
            if op == "add":
                work.append(env.now)
            if op != "yield0":
                bell.ring()

    env.process(producer(env))
    if until is not None:
        env.run(until=until)
        if then is not None:
            then(env, bell, work)
    env.run()
    return busy, passes, env.now


def _ghost_vs_reference(script, **kwargs):
    got = _run_ghost_bell(Bell, script, **kwargs)
    want = _run_ghost_bell(ReferenceBell, script, **kwargs)
    # the passes that did something, and the clock, are the loop's
    assert got[0] == want[0] and got[2] == want[2]
    return got


def test_bell_empty_pass_queues_nothing_and_a_drain_ends_at_its_time():
    busy, passes, now = _ghost_vs_reference([(2.0, "ring")])
    # the wake at 2 reserved the sleep record's key (3.0): no pass ran,
    # and the drain still ends where that record would have
    assert busy == [] and passes == [] and now == 3.0


def test_bell_ring_before_reserved_key_runs_the_pass_there_and_latches():
    busy, passes, now = _ghost_vs_reference([(2.0, "ring"), (0.5, "add")])
    # the pass runs under the reserved key at 3.0; the latched ring's
    # wake finds nothing to do and reserves 4.0
    assert busy == [(3.0, (2.5,))] and passes == [3.0] and now == 4.0


def test_bell_ring_on_reserved_time_tie_won_by_the_ring():
    # the producer's 3.0 record was queued before the wake reserved 3.0:
    # its ring sorts first, so the pass runs under the reserved key
    busy, passes, _now = _ghost_vs_reference([(2.0, "ring"), (1.0, "add")])
    assert busy == [(3.0, (3.0,))] and passes == [3.0]


def test_bell_ring_on_reserved_time_tie_won_by_the_reservation():
    # the zero-delay yield lets the wake reserve 3.0 before the producer
    # queues its 3.0 record: the empty pass is over when it rings
    busy, passes, _now = _ghost_vs_reference([(2.0, "ring"), (0.0, "yield0"), (1.0, "add")])
    assert busy == [(4.0, (3.0,))] and passes == [4.0]


def test_bell_ring_after_reserved_time_finds_the_bell_idle():
    busy, passes, now = _ghost_vs_reference([(2.0, "ring"), (1.5, "add")])
    assert busy == [(4.5, (3.5,))] and passes == [4.5] and now == 4.5


def _add_and_ring(env, bell, work):
    work.append(env.now)
    bell.ring()


def test_bell_ring_after_run_until_the_reserved_time_finds_it_passed():
    busy, passes, _now = _ghost_vs_reference([(2.0, "ring")], until=3.0, then=_add_and_ring)
    assert busy == [(4.0, (3.0,))] and passes == [4.0]


def test_bell_ring_after_run_until_before_the_reserved_time_runs_it():
    busy, passes, _now = _ghost_vs_reference([(2.0, "ring")], until=2.5, then=_add_and_ring)
    assert busy == [(3.0, (2.5,))] and passes == [3.0]


def test_reserved_key_passes_by_full_key_order():
    env = Environment()
    seen = []
    first = env.timeout(1.0)  # drew its sequence number before the key
    key = env.reserve(1.0)
    last = env.timeout(1.0)  # ... and this one after it
    first.callbacks.append(lambda _ev: seen.append(("first", env.passed(key))))
    last.callbacks.append(lambda _ev: seen.append(("last", env.passed(key))))
    assert key[:2] == (1.0, Environment.NORMAL)
    assert not env.passed(key) and not env.drained()
    env.run(until=0.5)
    assert not env.passed(key) and not env.drained()
    env.run()
    assert seen == [("first", False), ("last", True)]
    assert env.passed(key) and env.drained() and env.now == 1.0


class _Record:
    def __init__(self, order):
        self.order = order

    def _do_resume(self, _value, _exception):
        self.order.append("reserved")


def test_schedule_reserved_runs_the_record_under_its_key():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    key = env.reserve(1.0)
    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run(until=0.5)  # both timeouts drew later sequence numbers
    env.schedule_reserved(_Resume(_Record(order), None, None), key)
    env.run()
    assert order == ["reserved", "a", "b"]


class _Count:
    """``itertools.count()`` that remembers the last number it drew."""

    def __init__(self):
        self.last = -1

    def __iter__(self):
        return self

    def __next__(self):
        self.last += 1
        return self.last


class _LoggedEnvironment(Environment):
    """Logs every queue push as (now, due time, priority, sequence),
    every reservation as (now, key), and after every step the clock and
    the sequence number of the record it ran: equal logs mean equal
    queue order under equal keys."""

    def __init__(self):
        super().__init__()
        self._counter = _Count()
        self.pushes = []
        self.reserves = []
        self.steps = []

    def _schedule(self, event, delay=0.0, priority=Environment.NORMAL):
        super()._schedule(event, delay, priority)
        self.pushes.append((self._now, self._now + delay, priority, self._counter.last))

    def _schedule_at(self, event, when, priority=Environment.NORMAL):
        super()._schedule_at(event, when, priority)
        self.pushes.append((self._now, when, priority, self._counter.last))

    def _schedule_resume(self, process, value, exception, priority=Environment.NORMAL):
        resume = super()._schedule_resume(process, value, exception, priority)
        self.pushes.append((self._now, self._now, priority, self._counter.last))
        return resume

    def sleep(self, delay):
        slept = super().sleep(delay)
        self.pushes.append((self._now, self._now + delay, Environment.NORMAL, self._counter.last))
        return slept

    def reserve(self, delay=0.0):
        key = super().reserve(delay)
        self.reserves.append((self._now, key))
        return key

    def schedule_reserved(self, record, key):
        super().schedule_reserved(record, key)
        self.pushes.append((self._now, *key))

    def step(self):
        super().step()
        self.steps.append((self._now, self._seq_now))


def _drive_bell(bell_cls, latency, early_rings, script, pass_rings, idle=False):
    """Ring a bell on ``script`` (delay, rings, adds work) and from its
    passes; with ``idle`` a pass is empty unless work was added since
    the last one, and only a pass that did work rings (an empty pass
    has no effects).  Returns the passes (time, record sequence number,
    work seen), pushes, steps and reservations."""
    env = _LoggedEnvironment()
    passes = []
    work = []
    effective = []  # the passes that may have effects

    def on_pass():
        passes.append((env.now, env._seq_now, len(work)))
        if work or not idle:
            effective.append(env.now)
            # (the cap: a zero latency would otherwise never end)
            if len(effective) < 40:
                for _ in range(pass_rings[len(effective) % len(pass_rings)]):
                    bell.ring()
        work.clear()

    def driver(env):
        for dt, rings, adds in script:
            if dt:
                yield env.timeout(dt)
            if adds:  # work comes with a ring, as a pending pod does
                work.append(env.now)
                rings = max(rings, 1)
            for _ in range(rings):
                bell.ring()

    env.process(driver(env))  # its boot record runs before the bell's
    bell = bell_cls(env, latency, on_pass, idle=(lambda: not work) if idle else None)
    for _ in range(early_rings):
        bell.ring()
    env.run(until=100)
    return passes, env.pushes, env.steps, env.reserves


def assert_skips_only_empty_passes(got, want):
    """``got`` (a bell with ``idle``) against ``want`` (the loop), each
    (passes, pushes, steps, reserves) with passes (time, sequence
    number, *work done): the passes that did work are the loop's, every
    pass that ran is the loop's under the same key, the only records
    missing are the sleep records of passes that did nothing, and each
    of those was reserved under the key the loop queued it with."""
    passes, pushes, steps, reserves = got
    want_passes, want_pushes, want_steps, _ = want

    def busy(log):
        return [p for p in log if any(p[2:])]

    assert busy(passes) == busy(want_passes)
    assert set(passes) <= set(want_passes)
    ran = {p[1] for p in passes}
    skipped = [p for p in want_passes if p[1] not in ran]
    assert not busy(skipped)
    skipped_seqs = {p[1] for p in skipped}
    reserved = {key[2] for _now, key in reserves}
    assert skipped_seqs <= reserved
    assert all((now, *key) in set(want_pushes) for now, key in reserves)

    # pushed at the loop's moment, unless a ring queued a reserved record
    def by_seq(log):
        return {e[3]: e[1:] if e[3] in reserved else e for e in log}

    assert len(by_seq(pushes)) == len(pushes)
    assert by_seq(pushes) == by_seq(e for e in want_pushes if e[3] not in skipped_seqs)
    assert steps == [e for e in want_steps if e[1] not in skipped_seqs]


_BELL_SCRIPTS = dict(
    latency=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    early_rings=st.integers(min_value=0, max_value=2),
    script=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.5]),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        max_size=25,
    ),
    pass_rings=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
)


@given(**_BELL_SCRIPTS)
@settings(max_examples=300, deadline=None)
def test_bell_matches_latching_signal_loop(latency, early_rings, script, pass_rings):
    """Rings before boot, in the same instant, during the sleep, during
    the pass and while a latched wake is queued (the driver's grid and
    the latency share exact float steps): the bell makes the loop's
    passes at the loop's times through the loop's queue records."""
    got = _drive_bell(Bell, latency, early_rings, script, pass_rings)
    want = _drive_bell(ReferenceBell, latency, early_rings, script, pass_rings)
    assert got == want


@given(**_BELL_SCRIPTS)
@settings(max_examples=300, deadline=None)
def test_bell_with_idle_skips_only_empty_passes(latency, early_rings, script, pass_rings):
    """The same ring schedules, with work added on some rings: a bell
    told which passes would be empty skips only those."""
    got = _drive_bell(Bell, latency, early_rings, script, pass_rings, idle=True)
    want = _drive_bell(ReferenceBell, latency, early_rings, script, pass_rings, idle=True)
    assert_skips_only_empty_passes(got, want)


# -- park(): direct-resume waiting --------------------------------------------

def test_park_requires_active_process():
    env = Environment()
    sig = Signal(env)
    with pytest.raises(SimulationError):
        sig.park()


def test_parked_process_woken_by_fire():
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park()
        cause = yield token
        sig.unpark(token)
        log.append((cause is Signal.FIRED, env.now))

    def producer(env):
        yield env.timeout(7)
        assert sig.fire() == 1

    env.process(sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == [(True, 7.0)]


def test_park_deadline_delivers_none():
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park(4.0)
        cause = yield token
        sig.unpark(token)
        log.append((cause, env.now))

    env.process(sleeper(env))
    env.run()
    assert log == [(None, 4.0)]


def test_fired_sleeper_resumes_before_producers_next_event():
    """fire() queues the direct resume immediately: the woken process
    runs before anything the producer schedules *after* firing — the
    same slot a pre-queued wakeup event would have occupied."""
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park()
        yield token
        sig.unpark(token)
        log.append("woken")

    def producer(env):
        yield env.timeout(1)
        sig.fire()
        yield env.timeout(0)
        log.append("producer-continued")

    env.process(sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == ["woken", "producer-continued"]


def test_deadline_beats_same_time_fire():
    """Mirror of the interrupt-race tests: the park deadline was
    scheduled at park time (older sequence number), so when a producer
    fires at exactly the deadline instant, the deadline event processes
    first and the sleeper observes a timeout, not a wakeup."""
    env = Environment()
    sig = Signal(env)
    log = []

    def sleeper(env):
        token = sig.park(5.0)
        cause = yield token
        sig.unpark(token)
        log.append("fired" if cause is Signal.FIRED else "deadline")

    def producer(env):
        yield env.timeout(5.0)
        sig.fire()

    env.process(sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == ["deadline"]
    # the same-time fire found nobody parked anymore
    assert sig.waiting == 0


def test_stale_park_registration_is_skipped():
    """A sleeper that wakes via its deadline but forgets to unpark must
    not be resumed by a later fire while it waits on something else."""
    env = Environment()
    sig = Signal(env)
    log = []

    def sloppy_sleeper(env):
        token = sig.park(1.0)
        cause = yield token
        assert cause is None  # deadline, but no unpark (sloppy)
        got = yield env.timeout(10, value="slept-through")
        log.append((got, env.now))

    def producer(env):
        yield env.timeout(5)
        assert sig.fire() == 0  # stale registration: nobody truly parked

    env.process(sloppy_sleeper(env))
    env.process(producer(env))
    env.run()
    assert log == [("slept-through", 11.0)]


# -- tick-boundary alignment --------------------------------------------------

@given(
    epoch=st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                    allow_infinity=False),
    interval=st.sampled_from([0.5, 1.0, 5.0, 10.0, 0.3]),
    n_idle=st.integers(min_value=0, max_value=200),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_next_tick_matches_sequential_spinner(epoch, interval, n_idle, frac):
    """next_tick must replay the spinner's float additions exactly: the
    boundary it returns is bit-identical to the tick a polling loop
    would wake at, for a wakeup landing anywhere inside an interval."""
    # where the spinner's ticks actually land (sequential addition)
    t = epoch
    ticks = []
    for _ in range(n_idle + 2):
        t += interval
        ticks.append(t)
    # a wakeup strictly inside (ticks[n_idle-1], ticks[n_idle]]
    prev = ticks[n_idle - 1] if n_idle else epoch
    fire_at = prev + (ticks[n_idle] - prev) * frac
    if not prev <= fire_at < ticks[n_idle]:
        return  # degenerate float case: interval lost to rounding
    boundary, skipped = next_tick(epoch, interval, fire_at)
    assert boundary == ticks[n_idle]  # bit-identical, not just approx
    assert skipped == n_idle


def _sequential(epoch: float, interval: float, k: int) -> float:
    tick = epoch
    for _ in range(k):
        tick += interval
    return tick


GRID_INTERVALS = (0.5, 5.0, 0.1, 0.3)


@st.composite
def _grid_epochs(draw):
    """Epochs at 0, at and a few ulps around powers of two (so sums
    start at, or cross, a binade's edge), a whole number of intervals
    below one, and anywhere up to 2**60."""
    interval = draw(st.sampled_from(GRID_INTERVALS))
    power = 2.0 ** draw(st.integers(-4, 60))
    kind = draw(st.sampled_from(["zero", "power", "below", "anywhere"]))
    if kind == "zero":
        epoch = 0.0
    elif kind == "power":
        epoch = power
    elif kind == "below":
        epoch = max(0.0, power - draw(st.integers(0, 40)) * interval)
    else:
        epoch = draw(st.floats(min_value=0.0, max_value=2.0**60))
    for _ in range(abs(nudge := draw(st.integers(-3, 3)))):
        epoch = math.nextafter(epoch, math.inf if nudge > 0 else 0.0)
    return epoch, interval


@settings(max_examples=400, deadline=None)
@given(grid=_grid_epochs(), k=st.integers(0, 60))
def test_grid_tick_is_the_sequential_sum(grid, k):
    """One step or replayed, the k-th tick is the loop's sum bit for bit,
    across binade edges and for intervals that are not a multiple of
    the epoch's ulp."""
    epoch, interval = grid
    assert grid_tick(epoch, interval, k) == _sequential(epoch, interval, k)


def test_grid_tick_takes_one_step_within_a_binade_only():
    """0.1 is a multiple of ``ulp(0.24)``, but the sum leaves the binade
    [0.125, 0.25) at once, and ``0.24 + 2*0.1`` rounds differently from
    two additions; inside a binade the one-step sum is the loop's."""
    assert 0.1 % math.ulp(0.24) == 0.0
    assert 0.24 + 2 * 0.1 == 0.44
    assert grid_tick(0.24, 0.1, 2) == _sequential(0.24, 0.1, 2) == 0.43999999999999995
    assert grid_tick(1234.5678, 0.5, 20) == _sequential(1234.5678, 0.5, 20) == 1234.5678 + 10.0


def test_next_tick_on_boundary_is_strictly_after():
    boundary, skipped = next_tick(0.0, 0.5, 1.0)
    assert boundary == 1.5  # a wake exactly on a tick resumes at the next
    assert skipped == 2


def test_next_tick_rejects_bad_interval():
    with pytest.raises(ValueError):
        next_tick(0.0, 0.0, 1.0)
