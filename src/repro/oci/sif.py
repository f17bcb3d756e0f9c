"""The Singularity Image Format (SIF).

A flat single-file format (§4.1.4): one SquashFS partition carries the
whole root filesystem (no layering), with optional definition metadata,
embedded PGP signatures, an optional writable overlay partition, and
optional encryption.  "SIF integrates writable overlay data, which may
be useful to bundle either models or output data with the code using or
generating it."
"""

from __future__ import annotations

import dataclasses
import enum

from repro.fs.images import DEFAULT_COMPRESSION_RATIO, SquashImage, pack_squash
from repro.fs.tree import FileTree
from repro.oci.digest import digest_str
from repro.oci.image import ImageConfig
from repro.signing.keys import KeyPair, Signature, SignatureError
from repro.world import world


class SIFPartition(enum.Enum):
    DEFINITION = "definition"
    SQUASHFS = "squashfs"
    OVERLAY = "overlay"
    SIGNATURE = "signature"


class SIFImage:
    """A flat, single-file container image."""

    def __init__(
        self,
        tree: FileTree,
        config: ImageConfig,
        definition: str = "",
        built_by_uid: int = 0,
        compression_ratio: float = DEFAULT_COMPRESSION_RATIO,
    ):
        self.sif_id = next(world.sif)
        self.config = config
        self.definition = definition
        self.built_by_uid = built_by_uid
        self.squash: SquashImage = pack_squash(
            tree, compression_ratio=compression_ratio, built_by_uid=built_by_uid
        )
        self.overlay: FileTree | None = None
        self.signatures: list[Signature] = []
        self.encrypted = False
        self._encryption_key_id: str | None = None

    # -- identity ---------------------------------------------------------------
    @property
    def tree(self) -> FileTree:
        return self.squash.tree

    @property
    def digest(self) -> str:
        return digest_str(f"sif:{self.squash.digest}:{self.config.digest}:{self.definition}")

    @property
    def file_size(self) -> int:
        size = self.squash.compressed_size + len(self.definition.encode())
        if self.overlay is not None:
            size += self.overlay.total_size()
        return size

    def partitions(self) -> list[SIFPartition]:
        parts = [SIFPartition.DEFINITION, SIFPartition.SQUASHFS]
        if self.overlay is not None:
            parts.append(SIFPartition.OVERLAY)
        if self.signatures:
            parts.append(SIFPartition.SIGNATURE)
        return parts

    # -- overlay -----------------------------------------------------------------
    def add_overlay(self) -> FileTree:
        """Attach a writable overlay partition (created empty)."""
        if self.encrypted:
            raise SignatureError("cannot attach an overlay to an encrypted image")
        if self.overlay is None:
            self.overlay = FileTree()
        return self.overlay

    # -- signing (PGP embedded in the SIF, §4.1.5) ----------------------------------
    def sign(self, key: KeyPair) -> Signature:
        signature = key.sign(self.digest.encode())
        self.signatures.append(signature)
        return signature

    def verify(self, key: KeyPair) -> bool:
        return any(key.verify(self.digest.encode(), sig) for sig in self.signatures)

    # -- encryption ------------------------------------------------------------------
    def encrypt(self, key: KeyPair) -> None:
        """Encrypt the squash partition (kernel dm-crypt route in the
        real implementation, hence root/driver requirements at runtime)."""
        if self.encrypted:
            raise SignatureError("image already encrypted")
        self.encrypted = True
        self._encryption_key_id = key.public_id

    def decrypt(self, key: KeyPair) -> None:
        if not self.encrypted:
            raise SignatureError("image is not encrypted")
        if key.public_id != self._encryption_key_id:
            raise SignatureError("wrong decryption key")
        self.encrypted = False
        self._encryption_key_id = None

    def readable_tree(self) -> FileTree:
        """The root filesystem — refuses to serve encrypted content."""
        if self.encrypted:
            raise SignatureError("image is encrypted; decrypt before use")
        return self.squash.tree

    def __repr__(self) -> str:
        flags = []
        if self.encrypted:
            flags.append("encrypted")
        if self.signatures:
            flags.append(f"{len(self.signatures)} sig")
        return f"<SIFImage #{self.sif_id} {self.file_size}B {' '.join(flags)}>"
