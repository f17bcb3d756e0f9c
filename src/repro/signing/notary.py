"""Notary-style trust: per-repository signed tag→digest mappings.

Docker content trust (Notary v1/v2): each repository has a trust root;
publishers sign the association of a tag with a manifest digest, and
clients verify the mapping before pulling — defeating tag-squatting and
registry-side tampering (§4.1.5).
"""

from __future__ import annotations

import dataclasses

from repro.signing.keys import KeyPair, Signature, SignatureError


@dataclasses.dataclass(frozen=True)
class TrustRecord:
    repository: str
    tag: str
    manifest_digest: str
    signature: Signature

    def payload(self) -> bytes:
        return f"{self.repository}:{self.tag}@{self.manifest_digest}".encode()


class NotaryService:
    """A trust service maintaining repository roots and signed targets."""

    def __init__(self) -> None:
        #: repository -> root key authorized to sign its targets
        self._roots: dict[str, KeyPair] = {}
        #: (repository, tag) -> record
        self._targets: dict[tuple[str, str], TrustRecord] = {}

    def init_repository(self, repository: str, owner: str) -> KeyPair:
        if repository in self._roots:
            raise SignatureError(f"repository {repository} already initialized")
        key = KeyPair(owner)
        self._roots[repository] = key
        return key

    def sign_target(
        self, repository: str, tag: str, manifest_digest: str, key: KeyPair
    ) -> TrustRecord:
        root = self._roots.get(repository)
        if root is None:
            raise SignatureError(f"repository {repository} has no trust root")
        if key.public_id != root.public_id:
            raise SignatureError("signing key is not the repository root key")
        payload = f"{repository}:{tag}@{manifest_digest}".encode()
        record = TrustRecord(repository, tag, manifest_digest, key.sign(payload))
        self._targets[(repository, tag)] = record
        return record

    def verify_target(self, repository: str, tag: str, manifest_digest: str) -> bool:
        record = self._targets.get((repository, tag))
        root = self._roots.get(repository)
        if record is None or root is None:
            return False
        if record.manifest_digest != manifest_digest:
            return False
        return root.verify(record.payload(), record.signature)

    def trusted_digest(self, repository: str, tag: str) -> str | None:
        record = self._targets.get((repository, tag))
        return record.manifest_digest if record else None
