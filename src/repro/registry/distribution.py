"""The OCI distribution (v2) protocol over a blob store.

Push/pull with content-addressed layer deduplication, tag listing,
multi-tenancy, per-project quotas, optional authentication and rate
limiting, OCI artifact storage (cosign signatures, Helm charts,
user-defined), and on-demand image squashing.

All operations return their simulated time cost so benchmark harnesses
can account for transfer behaviour without a live environment.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.faults.plan import FaultKind
from repro.oci.image import ImageConfig, Manifest, OCIImage
from repro.oci.layer import Layer
from repro.registry.auth import AuthService
from repro.registry.quota import QuotaManager
from repro.registry.ratelimit import RateLimiter
from repro.registry.storage import BlobStore, FSBlobStore
from repro.run import run


class RegistryError(RuntimeError):
    """Permanent registry failure (unknown image, auth, policy).

    Callers must **not** retry these: the same request will fail the
    same way.  Transient conditions raise :class:`RegistryUnavailable`
    subclasses instead, which engine pull loops retry with deterministic
    backoff (see :meth:`repro.engines.base.ContainerEngine.pull`).
    """


class RegistryUnavailable(RegistryError):
    """Transient registry failure — retrying later can succeed.

    ``cost`` is the virtual time the failed request consumed (one
    round trip for a 429, a full client timeout for a hang); retry
    loops add it to their accounted elapsed time so backoff interacts
    correctly with fault windows.
    """

    def __init__(self, message: str, cost: float = 0.0, retry_after: float | None = None):
        super().__init__(message)
        self.cost = cost
        self.retry_after = retry_after


class RegistryRateLimited(RegistryUnavailable):
    """HTTP 429: the registry throttled this client."""


class RegistryTimeout(RegistryUnavailable):
    """The request hung until the client-side timeout fired."""


@dataclasses.dataclass(frozen=True)
class Transport:
    """Client↔registry network cost model."""

    latency: float = 20e-3
    bandwidth: float = 1.0e9
    #: how long a client waits on a hung request before giving up
    client_timeout: float = 30.0

    def request_cost(self, nbytes: int = 0) -> float:
        return self.latency + nbytes / self.bandwidth


@dataclasses.dataclass
class Artifact:
    media_type: str
    digest: str
    size: int
    payload: object = None


#: media types every OCI v2 registry accepts
CORE_MEDIA_TYPES = frozenset(
    {
        "application/vnd.oci.image.layer.v1.tar+gzip",
        "application/vnd.oci.image.config.v1+json",
        "application/vnd.oci.image.manifest.v1+json",
    }
)


class OCIDistributionRegistry:
    """A registry speaking the OCI distribution protocol."""

    def __init__(
        self,
        name: str = "registry",
        store: BlobStore | None = None,
        auth: AuthService | None = None,
        rate_limiter: RateLimiter | None = None,
        quotas: QuotaManager | None = None,
        multi_tenant: bool = False,
        extra_media_types: frozenset[str] = frozenset(),
        user_defined_artifacts: bool = False,
        supports_squashing: bool = False,
        transport: Transport = Transport(),
    ):
        self.name = name
        # note: BlobStore defines __len__, so `store or ...` would discard
        # an *empty* store — the None check is load-bearing
        self.store = store if store is not None else FSBlobStore()
        self.auth = auth
        self.rate_limiter = rate_limiter
        self.quotas = quotas
        self.multi_tenant = multi_tenant
        self.allowed_media_types = CORE_MEDIA_TYPES | extra_media_types
        self.user_defined_artifacts = user_defined_artifacts
        self.supports_squashing = supports_squashing
        self.transport = transport
        #: repo -> tag -> manifest digest
        self._tags: dict[str, dict[str, str]] = {}
        #: manifest digest -> (Manifest, ImageConfig)
        self._manifests: dict[str, tuple[Manifest, ImageConfig]] = {}
        #: repo/ref -> artifact
        self._artifacts: dict[str, Artifact] = {}
        #: manifest digest -> the assembled OCIImage handed to pullers.
        #: Images are immutable, so repeat pulls of the same manifest can
        #: share one object instead of re-deriving the manifest + config
        #: digests per pull — at fleet scale that is one sha256/JSON
        #: round per container start.
        self._pull_cache: dict[str, OCIImage] = {}
        #: (manifest digest, which of its layers the client has) -> the
        #: pull's price before any slow-blob factor, its transferred
        #: bytes and its layers
        self._prices: dict[tuple[str, tuple[bool, ...]],
                           tuple[float, int, list[Layer]]] = {}
        #: image digest -> the blob-phase price and skipped-blob count of
        #: a push that found its config and every layer already stored
        self._repushes: dict[str, tuple[float, int]] = {}
        #: ``store.removals`` when both memos were last valid.  Blobs are
        #: content-addressed, so a memo only goes stale when a blob leaves
        #: the store (a GC purge or a direct ``store.delete``).
        self._removals = self.store.removals
        #: declared tenants (orgs/projects)
        self._tenants: set[str] = set()
        self.stats = {"pushes": 0, "pulls": 0, "blob_uploads_skipped": 0}

    # -- tenancy -------------------------------------------------------------------
    def create_tenant(self, tenant: str) -> None:
        if not self.multi_tenant:
            raise RegistryError(f"{self.name} has no multi-tenancy support")
        self._tenants.add(tenant)

    def _project_of(self, repository: str) -> str | None:
        if not self.multi_tenant:
            return None
        project = repository.split("/", 1)[0]
        if project not in self._tenants:
            raise RegistryError(f"unknown project/organization: {project!r}")
        return project

    # -- auth / limits -----------------------------------------------------------------
    def _authorize(self, token: str | None, scope: str) -> None:
        if self.auth is None:
            return
        if token is None:
            raise RegistryError(f"{self.name} requires authentication for {scope}")
        self.auth.validate(token, scope)

    def _rate_check(self, ip: str, now: float) -> None:
        if self.rate_limiter is not None:
            self.rate_limiter.check(ip, now)

    # -- push ---------------------------------------------------------------------------
    def push_image(
        self,
        repository: str,
        tag: str,
        image: OCIImage,
        token: str | None = None,
    ) -> float:
        """Push an image; returns the time cost.  Existing blobs are
        skipped after a HEAD check (layer dedup).

        A push that finds the config and every layer already stored (a
        re-push) memoizes its blob-phase price and skipped-blob count
        per image digest, so the next re-push of that image skips the
        HEAD checks.  Tags, manifests, ``stats``, the ``registry.push``
        span and the metrics stay per call.
        """
        self._authorize(token, "push")
        project = self._project_of(repository)
        self._check_memos()
        digest = image.digest
        new_bytes = 0
        repush = self._repushes.get(digest)
        if repush is not None:
            cost, skipped = repush
            self.stats["blob_uploads_skipped"] += skipped
        else:
            cost, new_bytes = self._push_blobs(image)
        if project is not None and self.quotas is not None and new_bytes:
            self.quotas.charge(project, new_bytes)
        self._manifests[digest] = (image.manifest, image.config)
        self._tags.setdefault(repository, {})[tag] = digest
        cost += self.transport.request_cost(1024)  # manifest PUT
        self.stats["pushes"] += 1
        if run.tracer.enabled:
            run.tracer.complete(
                "registry.push", cost, registry=self.name, ref=f"{repository}:{tag}"
            )
        if run.metrics.enabled:
            run.metrics.inc("registry.pushes", registry=self.name)
            run.metrics.inc("registry.bytes", new_bytes, registry=self.name, op="push")
        return cost

    def _push_blobs(self, image: OCIImage) -> tuple[float, int]:
        """Upload the image's missing layers and config; returns the
        price and the bytes uploaded, and memoizes a re-push."""
        store = self.store
        cost = 0.0
        new_bytes = 0
        skipped = 0
        for layer in image.layers:
            if store.has(layer.digest):
                cost += store.stat(layer.digest) + self.transport.request_cost()
                self.stats["blob_uploads_skipped"] += 1
                skipped += 1
            else:
                cost += self.transport.request_cost(layer.compressed_size)
                cost += store.put(
                    layer.digest,
                    layer.compressed_size,
                    payload=layer,
                    media_type="application/vnd.oci.image.layer.v1.tar+gzip",
                )
                new_bytes += layer.compressed_size
        # the manifest already snapshotted the config digest at image
        # construction; re-deriving it (JSON + sha256) per push is pure
        # waste when tenants re-push a shared catalog
        config_digest = image.manifest.config_digest
        if store.has(config_digest):
            if skipped == len(image.layers):
                self._repushes[image.digest] = (cost, skipped)
        else:
            config_payload = image.config.to_json().encode()
            cost += self.transport.request_cost(len(config_payload))
            cost += store.put(
                config_digest,
                len(config_payload),
                payload=image.config,
                media_type="application/vnd.oci.image.config.v1+json",
            )
            new_bytes += len(config_payload)
        return cost, new_bytes

    def _check_memos(self) -> None:
        """Forget the push and pull memos once a blob has left the store."""
        if self.store.removals != self._removals:
            self._prices.clear()
            self._repushes.clear()
            self._removals = self.store.removals

    # -- pull ----------------------------------------------------------------------------
    def resolve(self, repository: str, tag: str) -> str:
        """Resolve ``repository:tag`` to its manifest digest.

        Raises :class:`RegistryError` (permanent — callers must not
        retry) when the repository or tag does not exist.
        """
        tags = self._tags.get(repository)
        if tags is None or tag not in tags:
            raise RegistryError(f"{self.name}: no such image {repository}:{tag}")
        return tags[tag]

    def pull_image(
        self,
        repository: str,
        tag: str,
        token: str | None = None,
        ip: str = "10.0.0.1",
        now: float = 0.0,
        have_digests: _t.Container[str] = frozenset(),
    ) -> tuple[OCIImage, float]:
        """Pull an image; blobs in ``have_digests`` (the client's local
        cache) are skipped.  Returns the image and the time cost.

        Raises:
            RegistryError: permanently, for an unknown ``repository:tag``
                or failed authorization — do not retry.
            RegistryRateLimited: transiently, while an armed fault plan
                has a ``registry_429`` window open; carries the wasted
                round-trip as ``cost``.
            RegistryTimeout: transiently, during a ``registry_timeout``
                window; carries one full ``transport.client_timeout``.

        A ``registry_slow_blob`` fault does not raise — it multiplies the
        returned cost by the fault's factor.  ``now`` keys the fault
        window lookup (and the rate limiter), so analytic retry loops
        pass ``now + cost_so_far`` to model time moving forward between
        attempts.

        The price of a pull depends only on the manifest and on which of
        its layers the client already has, so it is computed once per
        such pair and memoized (the memo is checked after the auth, rate
        and fault checks, which stay per call, and is forgotten once a
        blob leaves the store).  A memoized pull does not read the blob
        store again; the slow-blob factor and :meth:`note_pull` (``stats``,
        the ``registry.pull`` span and the metrics) are still per call.
        """
        self._authorize(token, "pull")
        self._rate_check(ip, now)
        slow_factor = 1.0
        if run.faults.enabled:
            fault = run.faults.active("registry.pull", at=now, target=self.name)
            if fault is not None:
                if fault.kind is FaultKind.REGISTRY_429:
                    raise RegistryRateLimited(
                        f"{self.name}: 429 Too Many Requests (fault window "
                        f"until t={fault.until:.1f})",
                        cost=self.transport.request_cost(),
                        retry_after=max(0.0, fault.until - now),
                    )
                if fault.kind is FaultKind.REGISTRY_TIMEOUT:
                    raise RegistryTimeout(
                        f"{self.name}: request hung (fault window until "
                        f"t={fault.until:.1f})",
                        cost=self.transport.client_timeout,
                    )
                if fault.kind is FaultKind.REGISTRY_SLOW_BLOB:
                    slow_factor = max(1.0, fault.factor)
        digest = self.resolve(repository, tag)
        manifest, config = self._manifests[digest]
        have = tuple(map(have_digests.__contains__, manifest.layer_digests))
        self._check_memos()
        price = self._prices.get((digest, have))
        if price is None:
            cost = self.transport.request_cost(2048)  # manifest GET
            layers: list[Layer] = []
            transferred = 0
            for layer_digest, cached in zip(manifest.layer_digests, have):
                blob, store_cost = self.store.get(layer_digest)
                layer = blob.payload
                assert isinstance(layer, Layer)
                layers.append(layer)
                if not cached:
                    cost += store_cost + self.transport.request_cost(blob.size)
                    transferred += blob.size
            price = self._prices[digest, have] = (cost, transferred, layers)
        cost, transferred, layers = price
        cost *= slow_factor
        self.note_pull(repository, tag, cost, transferred)
        image = self._pull_cache.get(digest)
        if image is None:
            image = self._pull_cache[digest] = OCIImage(config, layers)
        return image, cost

    def note_pull(self, repository: str, tag: str, cost: float, transferred: int) -> None:
        """Account one served pull (``stats``, span, metrics): the tail of
        :meth:`pull_image`, for callers that already know its price."""
        self.stats["pulls"] += 1
        if run.tracer.enabled:
            run.tracer.complete(
                "registry.pull",
                cost,
                registry=self.name,
                ref=f"{repository}:{tag}",
                bytes=transferred,
            )
        if run.metrics.enabled:
            run.metrics.inc("registry.pulls", registry=self.name)
            run.metrics.inc("registry.bytes", transferred, registry=self.name, op="pull")
            run.metrics.observe("registry.pull_seconds", cost, registry=self.name)

    def delete_tag(self, repository: str, tag: str, token: str | None = None) -> None:
        self._authorize(token, "push")
        self.resolve(repository, tag)  # raises if absent
        del self._tags[repository][tag]
        if not self._tags[repository]:
            del self._tags[repository]

    def garbage_collect(self) -> int:
        """Drop manifests and blobs no tag references anymore; returns the
        number of blobs purged (registry GC, run offline in real life).
        Each purge counts in ``store.removals``, so the next push or pull
        forgets the memos, whose entries assume their blobs."""
        referenced_manifests = {
            digest for tags in self._tags.values() for digest in tags.values()
        }
        referenced_blobs: set[str] = set()
        for digest in list(self._manifests):
            if digest not in referenced_manifests:
                del self._manifests[digest]
        for manifest, config in self._manifests.values():
            referenced_blobs.update(manifest.layer_digests)
            referenced_blobs.add(config.digest)
        purged = 0
        for blob_digest in list(self.store._blobs):
            blob = self.store._blobs[blob_digest]
            if (
                blob_digest not in referenced_blobs
                and blob.media_type.startswith("application/vnd.oci.image")
            ):
                self.store.purge(blob_digest)
                purged += 1
        return purged

    def list_tags(self, repository: str) -> list[str]:
        return sorted(self._tags.get(repository, {}))

    def list_repositories(self) -> list[str]:
        return sorted(self._tags)

    # -- artifacts (cosign signatures, helm charts, user-defined) --------------------------
    def push_artifact(
        self,
        repository: str,
        reference: str,
        media_type: str,
        size: int,
        payload: object = None,
        token: str | None = None,
    ) -> float:
        self._authorize(token, "push")
        self._project_of(repository)
        if media_type not in self.allowed_media_types and not self.user_defined_artifacts:
            raise RegistryError(
                f"{self.name} does not accept artifacts of type {media_type!r}"
            )
        from repro.oci.digest import digest_str

        digest = digest_str(f"{repository}:{reference}:{media_type}")
        cost = self.transport.request_cost(size) + self.store.put(
            digest, size, payload=payload, media_type=media_type
        )
        self._artifacts[f"{repository}/{reference}"] = Artifact(media_type, digest, size, payload)
        return cost

    def get_artifact(self, repository: str, reference: str) -> Artifact:
        artifact = self._artifacts.get(f"{repository}/{reference}")
        if artifact is None:
            raise RegistryError(f"no artifact {repository}/{reference}")
        return artifact

    # -- squashing (Table 5: Quay "on-demand") ------------------------------------------------
    def squashed_image(self, repository: str, tag: str) -> OCIImage:
        if not self.supports_squashing:
            raise RegistryError(f"{self.name} does not support image squashing")
        digest = self.resolve(repository, tag)
        manifest, config = self._manifests[digest]
        layers = []
        for layer_digest in manifest.layer_digests:
            blob, _ = self.store.get(layer_digest)
            assert isinstance(blob.payload, Layer)
            layers.append(blob.payload)
        flat = OCIImage(config, layers).flatten()
        return OCIImage(config, [Layer(flat, created_by=f"squash {repository}:{tag}")])

    def __repr__(self) -> str:
        return f"<OCIDistributionRegistry {self.name} repos={len(self._tags)}>"
