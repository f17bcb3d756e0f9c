"""Key pairs and detached signatures (HMAC-based simulation)."""

from __future__ import annotations

import dataclasses
import hashlib
import hmac

from repro.world import world


class SignatureError(Exception):
    """Verification failed or signature malformed."""


@dataclasses.dataclass(frozen=True)
class Signature:
    key_id: str
    payload_digest: str
    mac: str

    def covers(self, data: bytes) -> bool:
        return self.payload_digest == hashlib.sha256(data).hexdigest()


class KeyPair:
    """An asymmetric key pair, simulated with an HMAC secret.

    ``public_id`` stands in for the public key: verification requires a
    KeyPair object (the "public half") whose secret matches, which models
    key distribution without real asymmetric crypto.
    """

    def __init__(self, owner: str):
        self.owner = owner
        n = next(world.key)
        self._secret = hashlib.sha256(f"secret:{owner}:{n}".encode()).digest()
        self.public_id = hashlib.sha256(self._secret).hexdigest()[:16]

    def sign(self, data: bytes) -> Signature:
        payload_digest = hashlib.sha256(data).hexdigest()
        mac = hmac.new(self._secret, payload_digest.encode(), hashlib.sha256).hexdigest()
        return Signature(key_id=self.public_id, payload_digest=payload_digest, mac=mac)

    def verify(self, data: bytes, signature: Signature) -> bool:
        if signature.key_id != self.public_id:
            return False
        if not signature.covers(data):
            return False
        expected = hmac.new(
            self._secret, signature.payload_digest.encode(), hashlib.sha256
        ).hexdigest()
        return hmac.compare_digest(expected, signature.mac)

    def __repr__(self) -> str:
        return f"<KeyPair {self.owner} id={self.public_id}>"
