"""Tests for the OCI distribution registry: push/pull, dedup, tenancy,
quotas, auth, artifacts, squashing."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.fs import FileTree
from repro.oci import Builder, ImageConfig, Layer, OCIImage
from repro.oci.catalog import BaseImageCatalog
from repro.registry import (
    AuthError,
    AuthService,
    InternalAuth,
    OCIDistributionRegistry,
    QuotaExceeded,
    QuotaManager,
    RegistryError,
    RegistryRateLimited,
    RegistryTimeout,
)
from repro.registry.registries import COSIGN_MEDIA_TYPE
from repro.registry.storage import StorageError
from repro.run import ObsConfig, observing, run
from repro.sim import Environment


def small_image(content: bytes = b"app") -> OCIImage:
    t = FileTree()
    t.create_file("/bin/app", data=content)
    return OCIImage(ImageConfig(), [Layer(t, created_by="base")])


@pytest.fixture
def registry():
    return OCIDistributionRegistry(name="test")


def test_push_pull_roundtrip(registry):
    img = small_image()
    push_cost = registry.push_image("hpc/app", "v1", img)
    assert push_cost > 0
    pulled, pull_cost = registry.pull_image("hpc/app", "v1")
    assert pulled.digest == img.digest
    assert pull_cost > 0
    assert registry.list_tags("hpc/app") == ["v1"]


def test_pull_unknown_image(registry):
    with pytest.raises(RegistryError, match="no such image"):
        registry.pull_image("ghost/app", "v1")


def test_layer_dedup_across_tags(registry):
    """Two tags sharing layers upload each blob once (CAS, §3.1)."""
    builder = Builder(BaseImageCatalog())
    img1 = builder.build_dockerfile("FROM alpine\nRUN touch /a")
    img2 = builder.build_dockerfile("FROM alpine\nRUN touch /b")
    registry.push_image("hpc/app", "v1", img1)
    skipped_before = registry.stats["blob_uploads_skipped"]
    registry.push_image("hpc/app", "v2", img2)
    # the shared alpine base layer was skipped on the second push
    assert registry.stats["blob_uploads_skipped"] > skipped_before
    assert registry.store.stats["dedup_hits"] == 0  # skipped before reaching store


def test_pull_with_local_cache_costs_less(registry):
    builder = Builder(BaseImageCatalog())
    img = builder.build_dockerfile("FROM ubuntu\nRUN write /big 100000000")
    registry.push_image("hpc/app", "v1", img)
    _, cold = registry.pull_image("hpc/app", "v1")
    base_digest = img.layers[0].digest
    _, warm = registry.pull_image("hpc/app", "v1", have_digests={base_digest})
    assert warm < cold


def test_multi_tenancy_enforced():
    reg = OCIDistributionRegistry(name="t", multi_tenant=True)
    with pytest.raises(RegistryError, match="unknown project"):
        reg.push_image("neworg/app", "v1", small_image())
    reg.create_tenant("neworg")
    reg.push_image("neworg/app", "v1", small_image())


def test_tenancy_unsupported():
    reg = OCIDistributionRegistry(name="t", multi_tenant=False)
    with pytest.raises(RegistryError, match="no multi-tenancy"):
        reg.create_tenant("org")


def test_quota_enforcement():
    quotas = QuotaManager()
    reg = OCIDistributionRegistry(name="t", multi_tenant=True, quotas=quotas)
    reg.create_tenant("small")
    quotas.set_limit("small", 1000)
    t = FileTree()
    t.create_file("/huge", size=1_000_000)
    big = OCIImage(ImageConfig(), [Layer(t)])
    with pytest.raises(QuotaExceeded):
        reg.push_image("small/app", "v1", big)
    # tiny image fits
    reg.push_image("small/app", "tiny", small_image())


def test_quota_not_charged_for_dedup():
    quotas = QuotaManager()
    reg = OCIDistributionRegistry(name="t", multi_tenant=True, quotas=quotas)
    reg.create_tenant("org")
    quotas.set_limit("org", 10_000)
    img = small_image(b"payload")
    reg.push_image("org/app", "v1", img)
    used_after_first = quotas.used("org")
    reg.push_image("org/app", "v1-again", img)
    assert quotas.used("org") == used_after_first


def test_auth_required_when_configured():
    auth = AuthService([InternalAuth()])
    auth.providers[0].add_user("alice", "pw")
    reg = OCIDistributionRegistry(name="t", auth=auth)
    with pytest.raises(RegistryError, match="requires authentication"):
        reg.push_image("r/app", "v1", small_image())
    token = auth.login("alice", "pw", scopes=("push", "pull"))
    reg.push_image("r/app", "v1", small_image(), token=token.value)
    pulled, _ = reg.pull_image("r/app", "v1", token=token.value)
    assert pulled is not None


def test_auth_scope_enforced():
    auth = AuthService([InternalAuth()])
    auth.providers[0].add_user("bob", "pw")
    reg = OCIDistributionRegistry(name="t", auth=auth)
    pull_only = auth.login("bob", "pw", scopes=("pull",))
    with pytest.raises(AuthError, match="lacks scope"):
        reg.push_image("r/app", "v1", small_image(), token=pull_only.value)


def test_artifact_policy():
    reg = OCIDistributionRegistry(name="strict")
    with pytest.raises(RegistryError, match="does not accept"):
        reg.push_artifact("r", "sig", COSIGN_MEDIA_TYPE, size=100)
    lax = OCIDistributionRegistry(name="lax", extra_media_types=frozenset({COSIGN_MEDIA_TYPE}))
    lax.push_artifact("r", "sig", COSIGN_MEDIA_TYPE, size=100, payload={"sig": "x"})
    assert lax.get_artifact("r", "sig").payload == {"sig": "x"}
    userdef = OCIDistributionRegistry(name="userdef", user_defined_artifacts=True)
    userdef.push_artifact("r", "custom", "application/x-custom", size=10)


def test_squashing_gated_and_correct():
    reg = OCIDistributionRegistry(name="basic")
    builder = Builder(BaseImageCatalog())
    img = builder.build_dockerfile("FROM alpine\nRUN touch /a\nRUN touch /b")
    reg.push_image("r/app", "v1", img)
    with pytest.raises(RegistryError, match="squash"):
        reg.squashed_image("r/app", "v1")
    squasher = OCIDistributionRegistry(name="quaylike", supports_squashing=True)
    squasher.push_image("r/app", "v1", img)
    flat = squasher.squashed_image("r/app", "v1")
    assert len(flat.layers) == 1
    assert flat.flatten().exists("/a") and flat.flatten().exists("/b")


# -- pull-price memo ----------------------------------------------------------

def _layered_registry(image=None):
    """A registry holding one three-layer image (base, runtime, app)."""
    if image is None:
        image = Builder(BaseImageCatalog()).build_dockerfile(
            "FROM ubuntu\nRUN write /opt/rt 3000000\nRUN write /srv/app 5000000"
        )
    registry = OCIDistributionRegistry(name="memo")
    registry.push_image("hpc/app", "v1", image)
    return registry, image


def _arm(kind, **fields):
    plan = FaultPlan([FaultEvent(kind=kind, at=0.0, duration=100.0, **fields)])
    run.faults.arm(plan, Environment())


def test_repeated_pulls_share_a_price_but_each_is_counted_and_observed():
    registry, image = _layered_registry()
    have = {image.layers[0].digest}
    with observing(ObsConfig(metrics=True, trace=True)) as obs:
        pulls = [registry.pull_image("hpc/app", "v1", have_digests=have)
                 for _ in range(3)]
        spans = [args for _ph, name, _ts, _tid, args, _dur in obs.tracer.events
                 if name == "registry.pull"]
        snap = obs.metrics.snapshot(include_sim=False)
    assert len({cost for _image, cost in pulls}) == 1
    assert len({id(pulled) for pulled, _cost in pulls}) == 1
    assert registry.stats["pulls"] == 3
    assert len(spans) == 3
    assert len({span["bytes"] for span in spans}) == 1
    assert snap['registry.pulls{registry="memo"}'] == 3
    assert snap['registry.pull_seconds{registry="memo"}']["count"] == 3
    bytes_per_pull = sum(layer.compressed_size for layer in image.layers[1:])
    assert snap['registry.bytes{op="pull",registry="memo"}'] == 3 * bytes_per_pull


def test_note_pull_accounts_as_pull_image_does():
    """A caller that knows a pull's price (the fleet pull table) calls
    ``note_pull``; stats, spans and metrics equal those of pulling."""
    seen = []
    for via_note in (False, True):
        registry, image = _layered_registry()
        have = {image.layers[0].digest}
        _, cost = registry.pull_image("hpc/app", "v1", have_digests=have)
        transferred = sum(layer.compressed_size for layer in image.layers[1:])
        with observing(ObsConfig(metrics=True, trace=True)) as obs:
            for _ in range(2):
                if via_note:
                    registry.note_pull("hpc/app", "v1", cost, transferred)
                else:
                    registry.pull_image("hpc/app", "v1", have_digests=have)
            seen.append((registry.stats, obs.tracer.events,
                         obs.metrics.snapshot(include_sim=False)))
    assert seen[0] == seen[1]
    assert seen[0][0]["pulls"] == 3 and len(seen[0][1]) == 2


def test_each_layer_presence_pattern_is_priced_on_its_own():
    registry, image = _layered_registry()
    digests = [layer.digest for layer in image.layers]
    _, cold = registry.pull_image("hpc/app", "v1")
    _, base_cached = registry.pull_image("hpc/app", "v1", have_digests={digests[0]})
    _, app_cached = registry.pull_image("hpc/app", "v1", have_digests={digests[-1]})
    _, all_cached = registry.pull_image("hpc/app", "v1", have_digests=set(digests))
    assert cold > base_cached and cold > app_cached and app_cached > all_cached
    assert base_cached != app_cached
    # the same patterns again, through a fresh registry that never memoized
    fresh, _ = _layered_registry(image)
    for have, cost in ((set(), cold), ({digests[0]}, base_cached),
                       ({digests[-1]}, app_cached), (set(digests), all_cached)):
        assert fresh.pull_image("hpc/app", "v1", have_digests=have)[1] == cost


def test_slow_blob_window_scales_a_memoized_price_exactly():
    registry, image = _layered_registry()
    fresh, _ = _layered_registry(image)
    _, base = registry.pull_image("hpc/app", "v1")  # memoizes the price
    with observing(ObsConfig()):
        _arm(FaultKind.REGISTRY_SLOW_BLOB, factor=4.0)
        _, memoized = registry.pull_image("hpc/app", "v1", now=1.0)
        _, unmemoized = fresh.pull_image("hpc/app", "v1", now=1.0)
    assert memoized == unmemoized == base * 4.0


@pytest.mark.parametrize("kind, error", [
    (FaultKind.REGISTRY_429, RegistryRateLimited),
    (FaultKind.REGISTRY_TIMEOUT, RegistryTimeout),
])
def test_fault_windows_raise_before_the_memo_is_read(kind, error):
    registry, _ = _layered_registry()
    _, price = registry.pull_image("hpc/app", "v1")
    with observing(ObsConfig()):
        _arm(kind)
        with pytest.raises(error):
            registry.pull_image("hpc/app", "v1", now=1.0)
        assert registry.pull_image("hpc/app", "v1", now=200.0)[1] == price
    assert registry.stats["pulls"] == 2


def test_garbage_collect_forgets_memoized_prices():
    registry, image = _layered_registry()
    registry.pull_image("hpc/app", "v1")
    registry.delete_tag("hpc/app", "v1")
    assert registry.garbage_collect() > 0
    # the re-pushed blobs sit in a slower store: a stale memo would
    # return the old price
    registry.store.request_latency = 1.0
    registry.push_image("hpc/app", "v1", image)
    _, repriced = registry.pull_image("hpc/app", "v1")
    slow = OCIDistributionRegistry(name="slow")
    slow.store.request_latency = 1.0
    slow.push_image("hpc/app", "v1", image)
    assert repriced == slow.pull_image("hpc/app", "v1")[1]
    assert repriced > 3.0


# -- re-push memo ---------------------------------------------------------------

def _count_head_checks(registry, monkeypatch) -> list[str]:
    """Record every blob existence check the registry's store answers."""
    seen: list[str] = []
    has = registry.store.has

    def counted(digest):
        seen.append(digest)
        return has(digest)

    monkeypatch.setattr(registry.store, "has", counted)
    return seen


def test_repush_is_priced_as_an_unmemoized_head_only_push(monkeypatch):
    registry, image = _layered_registry()
    registry.push_image("hpc/app", "v2", image)  # HEAD-only: memoizes
    heads = _count_head_checks(registry, monkeypatch)
    skipped = registry.stats["blob_uploads_skipped"]
    memoized = registry.push_image("hpc/app", "v3", image)
    assert heads == []
    # the same re-push through a registry whose memo is still empty
    fresh, _ = _layered_registry(image)
    fresh_skipped = fresh.stats["blob_uploads_skipped"]
    unmemoized = fresh.push_image("hpc/app", "v3", image)
    assert memoized == unmemoized
    assert (registry.stats["blob_uploads_skipped"] - skipped
            == fresh.stats["blob_uploads_skipped"] - fresh_skipped
            == len(image.layers))
    assert registry.list_tags("hpc/app") == ["v1", "v2", "v3"]
    assert registry.stats["pushes"] == 3


def test_memoized_repushes_are_each_counted_and_observed():
    image = _layered_registry()[1]
    with observing(ObsConfig(metrics=True, trace=True)) as obs:
        registry, _ = _layered_registry(image)
        costs = [registry.push_image("hpc/app", tag, image) for tag in ("v2", "v3")]
        spans = [args["ref"] for _ph, name, _ts, _tid, args, _dur in obs.tracer.events
                 if name == "registry.push"]
        snap = obs.metrics.snapshot(include_sim=False)
    assert costs[0] == costs[1]
    assert spans == ["hpc/app:v1", "hpc/app:v2", "hpc/app:v3"]
    assert snap['registry.pushes{registry="memo"}'] == 3
    assert snap['registry.bytes{op="push",registry="memo"}'] == registry.store.used_bytes


def test_garbage_collect_makes_a_repush_upload_and_price_again():
    registry, image = _layered_registry()
    registry.push_image("hpc/app", "v2", image)  # memoized re-push
    for tag in ("v1", "v2"):
        registry.delete_tag("hpc/app", tag)
    assert registry.garbage_collect() > 0
    skipped = registry.stats["blob_uploads_skipped"]
    cost = registry.push_image("hpc/app", "v1", image)
    fresh = OCIDistributionRegistry(name="memo")
    assert cost == fresh.push_image("hpc/app", "v1", image)
    assert registry.stats["blob_uploads_skipped"] == skipped
    assert registry.store.used_bytes == fresh.store.used_bytes


def test_deleting_one_stored_layer_fails_a_memoized_pull():
    registry, image = _layered_registry()
    registry.pull_image("hpc/app", "v1")  # memoized pull price
    registry.store.delete(image.layers[-1].digest)
    # a stale memo would still price the deleted blob
    with pytest.raises(StorageError, match="blob not found"):
        registry.pull_image("hpc/app", "v1")


def test_deleting_one_stored_layer_makes_a_repush_upload_it_again():
    registry, image = _layered_registry()
    registry.push_image("hpc/app", "v2", image)  # memoized re-push
    gone = image.layers[-1]
    registry.store.delete(gone.digest)
    skipped = registry.stats["blob_uploads_skipped"]
    cost = registry.push_image("hpc/app", "v3", image)
    assert registry.store.has(gone.digest)
    assert registry.stats["blob_uploads_skipped"] - skipped == len(image.layers) - 1
    # the same push against a store that never held a memo
    fresh, _ = _layered_registry(image)
    fresh.store.delete(gone.digest)
    assert cost == fresh.push_image("hpc/app", "v3", image)
    assert cost > registry.push_image("hpc/app", "v4", image)
