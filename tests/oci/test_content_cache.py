"""Content-addressed flatten / convert caches (repro.oci.squash)."""

import dataclasses

import pytest

from repro.fs import FileTree
from repro.oci import ImageConfig, Layer, OCIImage
from repro.oci.squash import flatten_image, oci_to_squash
from repro.sim import profile
from repro.world import WorldState


@pytest.fixture
def _empty_caches():
    """Run with every world cache empty, then put the caches back (the
    counters keep the draws the test made)."""
    saved = WorldState.capture()
    dataclasses.replace(saved, caches=WorldState.pristine().caches).install()
    yield
    dataclasses.replace(saved, counters=WorldState.capture().counters).install()


def make_image(files: dict[str, bytes]) -> OCIImage:
    t = FileTree()
    for path, data in files.items():
        t.create_file(path, data=data)
    t.create_file("/lib/bulk.so", size=10_000)
    return OCIImage(ImageConfig(), [Layer(t, created_by="base")])


def test_flatten_memo_returns_isolated_clones():
    image = make_image({"/etc/conf": b"v1"})
    a = image.flatten()
    b = image.flatten()
    assert a is not b
    assert [p for p, _ in a.walk()] == [p for p, _ in b.walk()]
    # the memoized master shares nodes; mutations stay per-clone
    assert a.get("/etc/conf") is b.get("/etc/conf")
    a.write("/etc/conf", b"v2")
    assert b.get("/etc/conf").data == b"v1"
    assert image.flatten().get("/etc/conf").data == b"v1"


def test_flatten_image_is_content_addressed(_empty_caches):
    image = make_image({"/etc/conf": b"v1"})
    prof = profile.enable()
    try:
        first = flatten_image(image)
        again = flatten_image(image)
        assert prof.flatten_cache_hits >= 1
        assert first is not again
        assert [p for p, _ in first.walk()] == [p for p, _ in again.walk()]
    finally:
        profile.disable()


def test_convert_cache_reuses_image_and_cost(_empty_caches):
    image = make_image({"/etc/conf": b"v1"})
    squash1, cost1 = oci_to_squash(image, built_by_uid=0)
    squash2, cost2 = oci_to_squash(image, built_by_uid=0)
    assert squash1 is squash2
    assert cost1 == cost2
    # provenance is part of the key: a user-run conversion is distinct
    user_squash, user_cost = oci_to_squash(image, built_by_uid=1000)
    assert user_squash is not squash1
    assert user_squash.built_by_uid == 1000
    assert user_cost == cost1  # same deterministic work, different provenance
