"""Host speed, sampled while a repetition runs.

A shared cloud host runs the same code up to ~1.7x slower at some
moments than at others, in phases of one to tens of seconds, and the two
vCPUs drift independently; CPU time is slowed as much as wall time, so
neither can be read raw.  :class:`SpeedSampler` interrupts the
repetition every :data:`INTERVAL_S` of its CPU time and times a fixed
pure-Python probe that uses nothing from the library, so no change to
the library moves it.  The probes' mean time against
:data:`PROBE_REFERENCE_S` is the host's slowdown over exactly the
repetition's window; a measured time divided by it is the time the
repetition would have taken at reference speed.  Probe time is taken out
of the measured wall.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time

#: CPU seconds between probes (about 2% of the repetition goes to probing)
INTERVAL_S = 0.05
#: seconds the probe takes at reference speed: a 2-vCPU x86-64 KVM guest
#: (Xeon, CPython 3.11) in its fast phase
PROBE_REFERENCE_S = 0.00072
#: probe iterations
PROBE_ITERATIONS = 10_000
#: per-process slots in the shared map: (probe seconds, probe count)
SLOTS = 4096
_SLOT = struct.Struct("dd")


def _probe() -> None:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7


class SpeedSampler:
    """Probes host speed on ``SIGVTALRM``, which ticks with the user CPU
    time of the process it arrives in: a process blocked on its pool
    workers is not probed, and every process forked while the sampler
    runs (pool workers) probes itself.  Each process adds its probes to
    its own slot (by pid) of an anonymous map shared across fork."""

    def __init__(self) -> None:
        #: seconds this process spent in the signal handler, probe included
        self.spent = 0.0
        self._shared = mmap.mmap(-1, SLOTS * _SLOT.size)
        self._running = False
        self._previous = None
        os.register_at_fork(after_in_child=self._restart_in_child)

    def start(self) -> None:
        self._running = True
        self._previous = signal.signal(signal.SIGVTALRM, self._on_timer)
        self._arm()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def _restart_in_child(self) -> None:
        # a forked child inherits the handler but not the interval timer
        if self._running:
            self._arm()

    def _on_timer(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _probe()
        probe = time.perf_counter() - t0
        offset = os.getpid() % SLOTS * _SLOT.size
        total, count = _SLOT.unpack_from(self._shared, offset)
        _SLOT.pack_into(self._shared, offset, total + probe, count + 1)
        self.spent += time.perf_counter() - t0

    def slowdown(self) -> float:
        """Mean probe time, over all processes, over reference probe time
        (1.0 when nothing ran long enough to be probed)."""
        total = count = 0.0
        for seconds, n in _SLOT.iter_unpack(self._shared):
            total += seconds
            count += n
        return total / count / PROBE_REFERENCE_S if count else 1.0
