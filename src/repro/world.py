"""The simulation world: every id counter and content cache, in one object.

Determinism in this repository rests on :data:`world`.  Every simulated
artifact digest and entity name is a pure function of the draws it makes
from nine id counters (inode numbers, image/mount/namespace/container/SIF
ids, registry token serials, signing key serials, k8s uids), so two runs
that start from the *same counter positions* produce byte-identical
results.  The four content caches (flatten, convert, pack, prefix replay)
only ever save wall-clock work; the simulated costs they hand back are
unchanged.  (Per-instance counters — apiserver resource versions, Slurm
job ids, kernel pids, Environment sequence numbers — are born fresh with
their owning object and are not part of the world.)

Sites draw with ``next(world.<counter>)`` and read ``world.<cache>`` on
every use, never binding either at import time, so :meth:`WorldState.install`
can swap both.  A :class:`WorldState` is a picklable copy of the world and
is the whole determinism state: ``capture`` reads it without consuming a
draw, ``install`` makes the live world equal to it, and ``pristine`` is
the world of a freshly imported process.

This module is a leaf: it imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

#: the id counters, in fingerprint order
COUNTERS = ("inode", "image", "mount", "ns", "container", "sif", "token", "key", "k8s_uid")

#: the content caches:
#: ``flatten``: manifest digest -> master flattened tree;
#: ``convert``: (manifest digest, uid, ratio) -> (SquashImage, cost);
#: ``pack``: (tree digest, ratio, uid, writable_by) -> SquashImage;
#: ``replay``: (kind, key, counter positions) -> (value, positions after)
CACHES = ("flatten", "convert", "pack", "replay")


class World:
    """The live counters (``itertools.count``) and caches (plain dicts)."""

    __slots__ = COUNTERS + CACHES

    def positions(self) -> tuple[int, ...]:
        """Each counter's next value, read without consuming it (draw it,
        then rebind every counter at the value it drew)."""
        out = tuple(next(getattr(self, name)) for name in COUNTERS)
        self.rewind(out)
        return out

    def rewind(self, positions: _t.Iterable[int]) -> None:
        for name, value in zip(COUNTERS, positions, strict=True):
            setattr(self, name, itertools.count(value))


@dataclasses.dataclass
class WorldState:
    """A picklable copy of :data:`world`."""

    #: counter name -> next value it will yield
    counters: dict[str, int]
    #: cache name -> cache contents
    caches: dict[str, dict]

    @classmethod
    def capture(cls) -> "WorldState":
        """Copy the live world (non-destructive; caches shallow-copied)."""
        return cls(
            counters=dict(zip(COUNTERS, world.positions())),
            caches={name: dict(getattr(world, name)) for name in CACHES},
        )

    @classmethod
    def pristine(cls) -> "WorldState":
        """A freshly imported process: counters at 1, caches empty."""
        return cls(counters=dict.fromkeys(COUNTERS, 1), caches={name: {} for name in CACHES})

    def install(self) -> None:
        """Make the live world equal this state.  The world gets fresh
        copies of the cache dicts, so later draws never mutate this
        state."""
        world.rewind(self.counters[name] for name in COUNTERS)
        for name in CACHES:
            setattr(world, name, dict(self.caches[name]))


def replay_prefix(kind: str, key: str, produce: _t.Callable[[], _t.Any]) -> tuple[_t.Any, bool]:
    """Run ``produce()`` once per (inputs, counter positions); replay after.

    Returns ``(value, replayed)``.  The cache key embeds the exact counter
    positions the producer started from, so a hit only occurs when the
    world is back in that state — in practice right after a warm-snapshot
    counter rewind; everywhere else the counters only advance and the
    cache is inert.  On a hit the counters jump to where the original run
    left them, so every later draw yields the same ids, digests and names
    as a re-run would.
    """
    cache_key = (kind, key, world.positions())
    hit = world.replay.get(cache_key)
    if hit is not None:
        value, after = hit
        world.rewind(after)
        return value, True
    value = produce()
    world.replay[cache_key] = (value, world.positions())
    return value, False


#: The process-wide world every draw and cache site reads.
world = World()
WorldState.pristine().install()
