"""Single-file filesystem images (SquashFS-like).

Flattening a container's many-small-file tree into one compressed image
file is the central HPC trick the paper describes (§3.2, §4.1.2): it
trades CPU (decompression) and memory for shared-filesystem metadata
load.  A :class:`SquashImage` records the inner tree, the compressed
on-disk size, and provenance metadata that the kernel model uses for its
security checks (a user-writable or user-supplied image must never reach
the in-kernel driver).
"""

from __future__ import annotations

import hashlib

from repro.fs.tree import FileTree
from repro.run import run
from repro.world import world

#: default compression ratio for typical container content (mixed
#: binaries/text); mksquashfs with zstd commonly lands around here.
DEFAULT_COMPRESSION_RATIO = 0.45

#: mksquashfs throughput (compression side), bytes/second per builder.
PACK_BANDWIDTH = 350e6


class SquashImage:
    """An immutable single-file image wrapping a file tree."""

    def __init__(
        self,
        tree: FileTree,
        compression_ratio: float = DEFAULT_COMPRESSION_RATIO,
        built_by_uid: int = 0,
        writable_by: frozenset[int] = frozenset(),
    ):
        if not 0 < compression_ratio <= 1:
            raise ValueError("compression_ratio must be in (0, 1]")
        self.image_id = next(world.image)
        self.tree = tree
        self.uncompressed_size = tree.total_size()
        self.compressed_size = int(self.uncompressed_size * compression_ratio)
        self.num_inner_files = tree.num_files()
        #: uid that produced the image — a setuid mount helper must verify
        #: this is a trusted (root/system) uid before using the kernel driver.
        self.built_by_uid = built_by_uid
        #: uids that can write the image file itself (beyond root).
        self.writable_by = frozenset(writable_by)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"squash:{self.image_id}:{self.uncompressed_size}:{self.num_inner_files}".encode())
        return "sha256:" + h.hexdigest()

    def is_user_manipulable(self, uid: int) -> bool:
        """Could ``uid`` have injected or altered this image's bytes?

        True when the user built the image themselves or holds write
        permission on the image file.  The kernel block-device drivers are
        not hardened against malicious images, so the mount layer refuses
        in-kernel mounts of manipulable images for unprivileged users.
        """
        if uid == 0:
            return False
        return self.built_by_uid == uid or uid in self.writable_by

    def pack_cost(self) -> float:
        """CPU seconds spent creating this image (mksquashfs-like)."""
        return self.uncompressed_size / PACK_BANDWIDTH

    def __repr__(self) -> str:
        return (
            f"<SquashImage id={self.image_id} files={self.num_inner_files} "
            f"compressed={self.compressed_size}B by_uid={self.built_by_uid}>"
        )


def tree_content_digest(tree: FileTree) -> str:
    """Content digest over a whole tree: sorted (path, kind, payload,
    perms) rows, the same recipe OCI layers hash.  Bulk (size-only)
    files hash their inode identity, so the digest is stable only for
    the *same* tree object (or trees built from an identical inode
    sequence) — exactly the equality :func:`pack_squash` memoizes on.

    The digest is memoized in the tree's scan cache (dropped on any
    mutation, shared by every tree aliasing a frozen root), so repeat
    packs of an unchanged tree don't pay the walk again.
    """
    cache = tree.scan_cache("/")
    digest = cache.get("tree_content_digest")
    if digest is None:
        h = hashlib.sha256()
        for path, node in sorted(tree.walk("/"), key=lambda pair: pair[0]):
            payload = ""
            if node.kind == "file":
                payload = node.digest()
            elif node.kind == "symlink":
                payload = node.target
            h.update(
                f"{path}\0{node.kind}\0{payload}\0{node.mode:o}:{node.uid}:{node.gid}\n".encode()
            )
        digest = "sha256:" + h.hexdigest()
        cache["tree_content_digest"] = digest
    return digest


def pack_squash(
    tree: FileTree,
    compression_ratio: float = DEFAULT_COMPRESSION_RATIO,
    built_by_uid: int = 0,
    writable_by: frozenset[int] = frozenset(),
) -> SquashImage:
    """Pack a file tree into a single-file image (mksquashfs analogue).

    Content-addressed like the flatten/convert caches in
    :mod:`repro.oci.squash` (``world.pack``, keyed by tree content digest,
    ratio, uid and writers): re-packing identical content returns the same
    immutable image instead of minting a new one, and the repeat counts as
    a ``flatten_cache_hits`` materialization saved.
    """
    key = (
        tree_content_digest(tree),
        compression_ratio,
        built_by_uid,
        frozenset(writable_by),
    )
    cached = world.pack.get(key)
    if cached is not None:
        counters = run.counters
        if counters.enabled:
            counters.flatten_cache_hits += 1
        return cached
    image = SquashImage(
        tree.clone(),
        compression_ratio=compression_ratio,
        built_by_uid=built_by_uid,
        writable_by=writable_by,
    )
    world.pack[key] = image
    return image
