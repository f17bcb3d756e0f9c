"""Authentication providers (Table 4's "Authentication Providers").

Each provider validates credentials against its own user source; a
registry's :class:`AuthService` chains the providers it supports and
mints scoped bearer tokens.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

from repro.world import world


class AuthError(PermissionError):
    pass


@dataclasses.dataclass(frozen=True)
class Token:
    value: str
    username: str
    provider: str
    scopes: frozenset[str]

    def allows(self, scope: str) -> bool:
        return scope in self.scopes or "admin" in self.scopes


class AuthProvider:
    """Base provider: a named credential validator."""

    name = "base"

    def __init__(self) -> None:
        self._users: dict[str, str] = {}

    def add_user(self, username: str, secret: str) -> None:
        self._users[username] = hashlib.sha256(secret.encode()).hexdigest()

    def authenticate(self, username: str, secret: str) -> bool:
        stored = self._users.get(username)
        return stored is not None and stored == hashlib.sha256(secret.encode()).hexdigest()


class InternalAuth(AuthProvider):
    name = "internal"


class LDAPAuth(AuthProvider):
    """Directory-backed auth — the baseline every HPC site has."""

    name = "ldap"


class OIDCAuth(AuthProvider):
    """OpenID Connect federation (tokens instead of passwords)."""

    name = "oidc"

    def authenticate(self, username: str, secret: str) -> bool:
        # OIDC: the "secret" is an identity-provider token; accept tokens
        # minted via issue_idp_token.
        return self._users.get(username) == hashlib.sha256(secret.encode()).hexdigest()

    def issue_idp_token(self, username: str) -> str:
        token = f"idp-{username}-{next(world.token)}"
        self.add_user(username, token)
        return token


class PAMAuth(AuthProvider):
    name = "pam"


class KerberosAuth(AuthProvider):
    name = "kerberos"


class SAMLAuth(AuthProvider):
    name = "saml"


class UAAAuth(AuthProvider):
    name = "uaa"


class KeystoneAuth(AuthProvider):
    name = "keystone"


class AuthService:
    """Chains providers and mints scoped tokens."""

    def __init__(self, providers: _t.Sequence[AuthProvider]):
        if not providers:
            raise ValueError("an AuthService needs at least one provider")
        self.providers = list(providers)
        self._tokens: dict[str, Token] = {}

    def provider_names(self) -> list[str]:
        return [p.name for p in self.providers]

    def login(self, username: str, secret: str, scopes: _t.Iterable[str] = ("pull",)) -> Token:
        for provider in self.providers:
            if provider.authenticate(username, secret):
                token = Token(
                    value=f"tok-{next(world.token)}",
                    username=username,
                    provider=provider.name,
                    scopes=frozenset(scopes),
                )
                self._tokens[token.value] = token
                return token
        raise AuthError(f"authentication failed for {username!r}")

    def validate(self, token_value: str, scope: str) -> Token:
        token = self._tokens.get(token_value)
        if token is None:
            raise AuthError("invalid token")
        if not token.allows(scope):
            raise AuthError(f"token lacks scope {scope!r}")
        return token

    def revoke(self, token_value: str) -> None:
        self._tokens.pop(token_value, None)
