"""Warm snapshots: replay a shared prefix once, fork it before every cell.

Every id draw and content cache lives on the single
:data:`repro.world.world` object, and a :class:`~repro.world.WorldState`
copy of it is the whole determinism state.  The shard runner installs a
known state before **every** cell — in the parent for serial runs and in
pool workers for parallel runs — which is what makes cell results
independent of execution order and worker placement, and therefore
byte-identical between ``--jobs 1`` and ``--jobs N``.

:class:`WarmSnapshot` layers the snapshot/fork mechanism on top: build
once by replaying the shared scenario *prefix* (site image built,
flatten/convert/pack caches hot) from a pristine base, then ``fork()``
before each cell.  A fork rewinds the counters to the pristine base —
so the cell re-draws the exact id sequence the warmup drew, its image
digests match the cached keys, and the prefix materialization work
resolves to cache hits — while the virtual-time results stay identical
to a cold run (the caches never change simulated costs, only wall
clock).
"""

from __future__ import annotations

import dataclasses
import pickle
import typing as _t

from repro.run import run
from repro.world import WorldState


def warm_scenario_prefix(n_nodes: int = 4) -> None:
    """Replay the shared §6/chaos scenario prefix to heat the caches.

    Every :class:`~repro.scenarios.base.IntegrationScenario` starts its
    ``__init__`` with the exact same sequence of counter draws for a
    given ``n_nodes`` — hosts, engines, site registry, then the workflow
    image build — so constructing the *base* scenario here consumes the
    identical id sequence any concrete scenario cell will re-draw after
    a counter rewind, and the flatten cache entry seeded below is keyed
    by the very manifest digest those cells will compute.
    """
    from repro.oci.squash import flatten_image
    from repro.scenarios.base import IntegrationScenario
    from repro.sim import Environment

    env = Environment()
    scenario = IntegrationScenario(env, n_nodes=n_nodes)
    flatten_image(scenario.image)


@dataclasses.dataclass
class WarmSnapshot:
    """A checkpoint of a warmed-up simulation prefix.

    ``world`` pairs the counter state the warmup *started* from (cells
    rewind to it so their draws replay the warmup's) with the caches the
    warmup left behind.  The whole object is a plain pickle — workers
    receive it as bytes through the pool initializer.
    """

    world: WorldState

    @classmethod
    def build(cls, warmup: _t.Callable[[], None]) -> "WarmSnapshot":
        """Run ``warmup`` from a pristine world and checkpoint what it
        materialized.  The caller's own world state is saved and restored
        around the build, so taking a snapshot is invisible to the
        surrounding process.
        """
        saved = WorldState.capture()
        base = WorldState.pristine()
        try:
            base.install()
            warmup()
            return cls(world=dataclasses.replace(WorldState.capture(), counters=base.counters))
        finally:
            saved.install()

    @classmethod
    def for_scenario_prefix(cls, n_nodes: int = 4) -> "WarmSnapshot":
        """The standard snapshot: shared site prefix at ``n_nodes``."""
        return cls.build(lambda: warm_scenario_prefix(n_nodes))

    def fork(self) -> None:
        """Install this snapshot as the current process's world state.

        Counters rewind to the snapshot's *base*, so the cell that runs
        next re-draws the warmup's id sequence and its prefix builds and
        image digests hit the warmed caches (each such hit counts as a
        ``warm_replays`` profile event).
        """
        self.world.install()
        counters = run.counters
        if counters.enabled:
            counters.snapshot_forks += 1

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WarmSnapshot":
        snapshot = pickle.loads(blob)
        if not isinstance(snapshot, cls):
            raise TypeError(f"expected a pickled WarmSnapshot, got {type(snapshot)!r}")
        return snapshot
