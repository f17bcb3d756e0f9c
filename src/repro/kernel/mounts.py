"""Per-mount-namespace mount tables.

Unsharing the mount namespace clones the table; mounts made afterwards
are invisible outside — this is how HPC engines "set up separate mounts
invisible to everyone beyond the real root of the host system" (§3.2).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.fs.drivers import MountDriver, MountedView
from repro.kernel.errors import EBUSY, EINVAL, ENOENT
from repro.world import world


@dataclasses.dataclass
class MountEntry:
    mount_id: int
    target: str
    view: MountedView
    flags: frozenset[str] = frozenset()

    @property
    def driver(self) -> MountDriver:
        return self.view.driver


class MountTable:
    """Ordered mount entries for one mount namespace."""

    def __init__(self, ns_id: int):
        self.ns_id = ns_id
        self.entries: list[MountEntry] = []

    def add(self, target: str, view: MountedView, flags: _t.Iterable[str] = ()) -> MountEntry:
        target = target.rstrip("/") or "/"
        entry = MountEntry(next(world.mount), target, view, frozenset(flags))
        self.entries.append(entry)
        return entry

    def remove(self, target: str) -> None:
        target = target.rstrip("/") or "/"
        for i in range(len(self.entries) - 1, -1, -1):
            if self.entries[i].target == target:
                del self.entries[i]
                return
        raise ENOENT(f"no mount at {target}")

    def mount_at(self, target: str) -> MountEntry | None:
        """The topmost mount exactly at ``target``."""
        target = target.rstrip("/") or "/"
        for entry in reversed(self.entries):
            if entry.target == target:
                return entry
        return None

    def resolve(self, path: str) -> tuple[MountEntry, str] | None:
        """Find the topmost mount covering ``path``; returns the entry and
        the path remainder inside that mount."""
        path = path.rstrip("/") or "/"
        best: MountEntry | None = None
        for entry in self.entries:
            prefix = entry.target
            if path == prefix or path.startswith(prefix.rstrip("/") + "/") or prefix == "/":
                if best is None or len(prefix) >= len(best.target):
                    best = entry
        if best is None:
            return None
        inner = path[len(best.target.rstrip("/")) :] or "/"
        return best, inner

    def is_mount_point(self, path: str) -> bool:
        return self.mount_at(path) is not None

    def clone(self, new_ns_id: int) -> "MountTable":
        table = MountTable(new_ns_id)
        # Mount entries are shared views (like shared propagation at clone
        # time) but the *lists* are independent afterwards.
        table.entries = list(self.entries)
        return table

    def targets(self) -> list[str]:
        return [e.target for e in self.entries]

    def __repr__(self) -> str:
        return f"<MountTable ns={self.ns_id} mounts={len(self.entries)}>"
