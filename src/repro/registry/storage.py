"""Blob storage backends for registries.

Registries deduplicate layers by digest (content-addressable storage,
§3.1); the backend determines latency/bandwidth and which deployment
styles are possible (Table 4's "Storage Support" column).
"""

from __future__ import annotations

import dataclasses
import typing as _t


class StorageError(RuntimeError):
    pass


@dataclasses.dataclass
class StoredBlob:
    digest: str
    size: int
    media_type: str = "application/octet-stream"
    #: opaque payload (e.g. a Layer, SIFImage, or manifest JSON)
    payload: object = None
    ref_count: int = 0


class BlobStore:
    """Content-addressed blob store with per-op cost accounting."""

    name = "fs"
    #: seconds per request (metadata round trip)
    request_latency = 2e-3
    #: bytes/second streaming
    bandwidth = 1.0e9

    def __init__(self, capacity_bytes: float = float("inf")):
        self._blobs: dict[str, StoredBlob] = {}
        self.capacity_bytes = capacity_bytes
        self.stats = {"puts": 0, "gets": 0, "dedup_hits": 0, "bytes_stored": 0}
        #: blobs that have left the store so far; a memo priced over the
        #: store's contents is stale once this moves
        self.removals = 0

    # -- operations: each returns (result, cost_seconds) -------------------------
    def put(
        self, digest: str, size: int, payload: object = None, media_type: str = "application/octet-stream"
    ) -> float:
        """Store a blob; deduplicates on digest.  Returns the time cost."""
        self.stats["puts"] += 1
        existing = self._blobs.get(digest)
        if existing is not None:
            existing.ref_count += 1
            self.stats["dedup_hits"] += 1
            return self.request_latency  # existence check only
        if self.used_bytes + size > self.capacity_bytes:
            raise StorageError(
                f"store full: {self.used_bytes} + {size} > {self.capacity_bytes}"
            )
        self._blobs[digest] = StoredBlob(digest, size, media_type, payload, ref_count=1)
        self.stats["bytes_stored"] += size
        return self.request_latency + size / self.bandwidth

    def get(self, digest: str) -> tuple[StoredBlob, float]:
        self.stats["gets"] += 1
        blob = self._blobs.get(digest)
        if blob is None:
            raise StorageError(f"blob not found: {digest[:19]}")
        return blob, self.request_latency + blob.size / self.bandwidth

    def has(self, digest: str) -> bool:
        return digest in self._blobs

    def stat(self, digest: str) -> float:
        """Existence-check cost."""
        return self.request_latency

    def delete(self, digest: str) -> None:
        blob = self._blobs.get(digest)
        if blob is None:
            raise StorageError(f"blob not found: {digest[:19]}")
        blob.ref_count -= 1
        if blob.ref_count <= 0:
            self.purge(digest)

    def purge(self, digest: str) -> None:
        """Drop a blob whatever its reference count (registry GC)."""
        del self._blobs[digest]
        self.removals += 1

    @property
    def used_bytes(self) -> int:
        return sum(b.size for b in self._blobs.values())

    def __len__(self) -> int:
        return len(self._blobs)


class FSBlobStore(BlobStore):
    """Local/cluster filesystem-backed store."""

    name = "fs"
    request_latency = 1e-3
    bandwidth = 1.5e9


class S3BlobStore(BlobStore):
    """Object-storage backend: higher per-request latency, good streaming."""

    name = "s3"
    request_latency = 25e-3
    bandwidth = 0.8e9
