"""Process credentials and Linux capabilities (the subset that matters
for container runtimes)."""

from __future__ import annotations

import dataclasses
import enum


class Capability(enum.Flag):
    """Capabilities referenced by the container-engine mechanisms."""

    NONE = 0
    SYS_ADMIN = enum.auto()      # mounts, namespaces other than user
    SYS_CHROOT = enum.auto()     # chroot(2)
    SYS_PTRACE = enum.auto()     # ptrace-based fakeroot (§4.1.2)
    SETUID = enum.auto()         # writing uid_map ranges, setuid(2)
    SETGID = enum.auto()
    CHOWN = enum.auto()
    DAC_OVERRIDE = enum.auto()   # bypass file permission checks
    NET_ADMIN = enum.auto()      # network namespace configuration
    MKNOD = enum.auto()          # device nodes inside containers
    SYS_RESOURCE = enum.auto()   # cgroup limit overrides


#: the full capability bounding set root holds in its own namespace
FULL_CAPS = (
    Capability.SYS_ADMIN
    | Capability.SYS_CHROOT
    | Capability.SYS_PTRACE
    | Capability.SETUID
    | Capability.SETGID
    | Capability.CHOWN
    | Capability.DAC_OVERRIDE
    | Capability.NET_ADMIN
    | Capability.MKNOD
    | Capability.SYS_RESOURCE
)


@dataclasses.dataclass
class Credentials:
    """uid/gid identity plus the effective capability set.

    ``capabilities`` are interpreted *relative to the process's user
    namespace* — a process that created a user namespace holds FULL_CAPS
    there while remaining unprivileged in the parent (the "rootless"
    mechanism of §3.2).
    """

    uid: int
    gid: int
    euid: int | None = None
    egid: int | None = None
    groups: frozenset[int] = frozenset()
    capabilities: Capability = Capability.NONE

    def __post_init__(self) -> None:
        if self.euid is None:
            self.euid = self.uid
        if self.egid is None:
            self.egid = self.gid
        # Effective root (including setuid-root helpers) holds the full
        # bounding set in its namespace.
        if self.euid == 0:
            self.capabilities = FULL_CAPS

    @property
    def is_root(self) -> bool:
        return self.euid == 0

    def has(self, cap: Capability) -> bool:
        # on the int values: Flag.__and__ builds a new member per call
        return bool(self.capabilities.value & cap.value)

    def drop(self, cap: Capability) -> None:
        self.capabilities &= ~cap

    def grant(self, cap: Capability) -> None:
        self.capabilities |= cap

    def clone(self) -> "Credentials":
        return Credentials(
            uid=self.uid,
            gid=self.gid,
            euid=self.euid,
            egid=self.egid,
            groups=self.groups,
            capabilities=self.capabilities,
        )
