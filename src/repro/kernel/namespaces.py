"""Linux namespaces, with full uid/gid-mapping semantics for user
namespaces.

The user namespace is the foundation of every rootless container
mechanism the paper surveys: creating one grants the creator a full
capability set *inside* it (enabling ``pivot_root``, bind mounts, and —
kernel permitting — overlay mounts) while the host-visible identity stays
the unprivileged user.  HPC engines deliberately map only a single uid
(§3.2: "user namespacing is limited to a single user to ensure files
created by processes in the container have the UID/GID of the user
launching the job").
"""

from __future__ import annotations

import dataclasses
import enum

from repro.kernel.errors import EINVAL, EPERM
from repro.world import world

#: kernel limit on user-namespace nesting depth
MAX_USERNS_LEVEL = 32


class NamespaceKind(enum.Enum):
    USER = "user"
    MNT = "mnt"
    PID = "pid"
    NET = "net"
    IPC = "ipc"
    UTS = "uts"
    CGROUP = "cgroup"


@dataclasses.dataclass(frozen=True)
class IdMapping:
    """One line of /proc/<pid>/uid_map: inside-start, outside-start, count."""

    inside: int
    outside: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise EINVAL(f"mapping count must be >= 1, got {self.count}")

    def to_parent(self, inside_id: int) -> int | None:
        if self.inside <= inside_id < self.inside + self.count:
            return self.outside + (inside_id - self.inside)
        return None

    def from_parent(self, outside_id: int) -> int | None:
        if self.outside <= outside_id < self.outside + self.count:
            return self.inside + (outside_id - self.outside)
        return None


class Namespace:
    """A non-user namespace instance."""

    def __init__(self, kind: NamespaceKind, owner: "UserNamespace | None", creator_uid: int = 0):
        self.ns_id = next(world.ns)
        self.kind = kind
        #: the user namespace that owns this namespace — capability checks
        #: against this namespace are evaluated in the owner userns.
        self.owner = owner
        self.creator_uid = creator_uid

    def __repr__(self) -> str:
        return f"<Namespace {self.kind.value}:{self.ns_id}>"


class UserNamespace(Namespace):
    """A user namespace with uid/gid mappings and nesting."""

    def __init__(self, parent: "UserNamespace | None", creator_uid: int = 0):
        level = 0 if parent is None else parent.level + 1
        if level > MAX_USERNS_LEVEL:
            raise EPERM(f"user namespace nesting limit ({MAX_USERNS_LEVEL}) exceeded")
        super().__init__(NamespaceKind.USER, owner=parent, creator_uid=creator_uid)
        self.parent = parent
        self.level = level
        self.uid_map: list[IdMapping] = []
        self.gid_map: list[IdMapping] = []
        # The initial namespace is identity-mapped over the whole id space.
        if parent is None:
            whole = IdMapping(inside=0, outside=0, count=1 << 32)
            self.uid_map = [whole]
            self.gid_map = [whole]

    @property
    def is_initial(self) -> bool:
        return self.parent is None

    @property
    def mappings_written(self) -> bool:
        return bool(self.uid_map)

    def set_mappings(self, uid_map: list[IdMapping], gid_map: list[IdMapping] | None = None) -> None:
        if self.mappings_written and not self.is_initial:
            raise EINVAL("uid_map may only be written once")
        if not uid_map:
            raise EINVAL("empty uid_map")
        self.uid_map = list(uid_map)
        self.gid_map = list(gid_map) if gid_map is not None else list(uid_map)

    # -- id translation ------------------------------------------------------
    def uid_to_parent(self, uid: int) -> int:
        for m in self.uid_map:
            out = m.to_parent(uid)
            if out is not None:
                return out
        raise EINVAL(f"uid {uid} has no mapping in userns {self.ns_id}")

    def uid_from_parent(self, uid: int) -> int | None:
        for m in self.uid_map:
            inside = m.from_parent(uid)
            if inside is not None:
                return inside
        return None

    def uid_to_host(self, uid: int) -> int:
        """Translate an inside uid all the way to the initial namespace."""
        ns: UserNamespace = self
        current = uid
        while not ns.is_initial:
            current = ns.uid_to_parent(current)
            assert ns.parent is not None
            ns = ns.parent
        return current

    def uid_from_host(self, host_uid: int) -> int | None:
        """Translate an initial-namespace uid down to this namespace.

        Returns None if any hop along the chain has no mapping (the id
        then appears as the overflow uid 65534 in the real kernel).
        """
        chain: list[UserNamespace] = []
        node: UserNamespace | None = self
        while node is not None:
            chain.append(node)
            node = node.parent
        current: int | None = host_uid
        for ns in reversed(chain):
            if ns.is_initial:
                continue
            assert current is not None
            current = ns.uid_from_parent(current)
            if current is None:
                return None
        return current

    def is_ancestor_of(self, other: "UserNamespace") -> bool:
        """True if self is ``other`` or any ancestor of ``other``."""
        node: UserNamespace | None = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def maps_multiple_uids(self) -> bool:
        return sum(m.count for m in self.uid_map) > 1

    def __repr__(self) -> str:
        return f"<UserNamespace id={self.ns_id} level={self.level} maps={len(self.uid_map)}>"
