"""World-state capture/install, prefix replay, and warm snapshots."""

import dataclasses

import pytest

from repro.shard.state import WarmSnapshot
from repro.world import CACHES, COUNTERS, WorldState, replay_prefix, world


def _positions() -> dict[str, int]:
    return dict(zip(COUNTERS, world.positions()))


def _rewound(checkpoint: WorldState) -> WorldState:
    """The live world with only its counters put back to ``checkpoint``
    (the caches, replay entries included, stay as they are now)."""
    return dataclasses.replace(WorldState.capture(), counters=dict(checkpoint.counters))


@pytest.fixture
def _world_guard():
    """Restore the process world state after a test that rewinds it."""
    saved = WorldState.capture()
    yield
    saved.install()


def test_capture_is_non_destructive():
    before = _positions()
    state = WorldState.capture()
    assert _positions() == before == state.counters
    # the caches are copies: the live world never hands out its dicts
    for name in CACHES:
        assert state.caches[name] == getattr(world, name)
        assert state.caches[name] is not getattr(world, name)


def test_capture_install_roundtrip(_world_guard):
    from repro.fs.tree import FileTree

    checkpoint = WorldState.capture()
    tree = FileTree()
    tree.create_file("/advance/counters", size=10)
    world.flatten["roundtrip-probe"] = tree
    assert _positions() != checkpoint.counters
    checkpoint.install()
    assert _positions() == checkpoint.counters
    assert "roundtrip-probe" not in world.flatten
    # installing hands the world its own copies: a later draw into the
    # live caches cannot reach back into the checkpoint
    world.flatten["after-install"] = tree
    assert "after-install" not in checkpoint.caches["flatten"]


def test_pristine_counters_all_one():
    pristine = WorldState.pristine()
    assert set(pristine.counters.values()) == {1}
    assert len(pristine.counters) == len(COUNTERS)
    assert set(pristine.caches) == set(CACHES)
    assert not any(pristine.caches.values())


def test_replay_prefix_returns_value_and_advances_counters(_world_guard):
    from repro.oci import Builder
    from repro.oci.catalog import BaseImageCatalog

    dockerfile = "FROM alpine:3.18\nRUN write /x 1000\nENTRYPOINT /x"
    checkpoint = WorldState.capture()
    image_cold = Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
    after_cold = _positions()

    # Rewind the counters only — the replay cache keeps the cold entry.
    _rewound(checkpoint).install()
    image_warm = Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
    # Identical value, and the counters jumped to the cold run's positions
    # — the world cannot tell a replay from a re-run.
    assert image_warm is image_cold
    assert _positions() == after_cold


def test_replay_prefix_counts_warm_replays(_world_guard):
    from repro.oci import Builder
    from repro.oci.catalog import BaseImageCatalog
    from repro.sim import profile

    value = object()
    checkpoint = WorldState.capture()
    assert replay_prefix("test", "k", lambda: value) == (value, False)
    _rewound(checkpoint).install()
    assert replay_prefix("test", "k", object) == (value, True)

    dockerfile = "FROM alpine:3.18\nRUN write /counted 10\nENTRYPOINT /counted"
    checkpoint = WorldState.capture()
    Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
    _rewound(checkpoint).install()
    profile.enable()
    try:
        Builder(BaseImageCatalog()).build_dockerfile(dockerfile)
        assert profile.counters.warm_replays == 1
    finally:
        profile.disable()


def test_replay_prefix_is_inert_when_counters_differ(_world_guard):
    calls = []
    replay_prefix("test", "k2", lambda: calls.append(1))
    # The world advanced (or at least is not back at the recorded
    # fingerprint), so the same key produces again instead of replaying.
    from repro.fs.tree import FileTree

    FileTree().create_file("/advance", size=1)
    _, replayed = replay_prefix("test", "k2", lambda: calls.append(1))
    assert len(calls) == 2
    assert not replayed


def test_warm_snapshot_build_is_invisible():
    before = WorldState.capture()
    snapshot = WarmSnapshot.for_scenario_prefix(n_nodes=2)
    after = WorldState.capture()
    assert after.counters == before.counters
    assert {n: set(c) for n, c in after.caches.items()} == {
        n: set(c) for n, c in before.caches.items()
    }
    assert any(snapshot.world.caches.values())


def test_warm_snapshot_pickle_roundtrip():
    snapshot = WarmSnapshot.for_scenario_prefix(n_nodes=2)
    clone = WarmSnapshot.from_bytes(snapshot.to_bytes())
    assert clone.world.counters == snapshot.world.counters
    # the snapshot holds the counters the warmup started from
    assert clone.world.counters == WorldState.pristine().counters
    for name in CACHES:
        assert set(clone.world.caches[name]) == set(snapshot.world.caches[name])
    assert any(clone.world.caches.values())


def test_warm_snapshot_fork_replays_prefix(_world_guard):
    """A forked cell rebuilds the scenario prefix entirely from cache."""
    from repro.sim import Environment, profile
    from repro.scenarios.base import IntegrationScenario

    snapshot = WarmSnapshot.for_scenario_prefix(n_nodes=2)
    profile.enable()
    try:
        snapshot.fork()
        assert _positions() == snapshot.world.counters
        IntegrationScenario(Environment(), n_nodes=2)
        assert profile.counters.snapshot_forks == 1
        assert profile.counters.warm_replays >= 1
    finally:
        profile.disable()
