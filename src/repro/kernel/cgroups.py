"""Control groups, v1 and v2, including the v2 delegation model.

Delegation matters to the paper's §6.5 scenario: running rootless
Kubernetes kubelets inside a WLM allocation "includes enabling version 2
of the Linux cgroups framework [and] cgroup delegations" — without a
delegated subtree an unprivileged kubelet cannot create pod cgroups.
"""

from __future__ import annotations

import enum

from repro.kernel.errors import EBUSY, EINVAL, ENOENT, EPERM


class Controller(enum.Enum):
    CPU = "cpu"
    MEMORY = "memory"
    PIDS = "pids"
    DEVICES = "devices"
    IO = "io"
    CPUSET = "cpuset"


#: controllers that exist only in v1 (devices became eBPF in v2) — kept
#: simple: v2 supports everything except DEVICES.
V2_CONTROLLERS = frozenset(Controller) - {Controller.DEVICES}


class Cgroup:
    """One node in a cgroup hierarchy."""

    def __init__(self, name: str, parent: "Cgroup | None", manager: "CgroupManager"):
        self.name = name
        self.parent = parent
        self.manager = manager
        self.children: dict[str, Cgroup] = {}
        self.limits: dict[Controller, float] = {}
        self.procs: set[int] = set()  # pids
        #: uid allowed to manage this subtree (v2 delegation)
        self.delegated_to: int | None = None
        #: accumulated usage for accounting (cpu-seconds, byte-seconds...)
        self.usage: dict[Controller, float] = {}

    @property
    def path(self) -> str:
        if self.parent is None:
            return "/"
        prefix = self.parent.path.rstrip("/")
        return f"{prefix}/{self.name}"

    def effective_limit(self, controller: Controller) -> float | None:
        """Tightest limit along the ancestor chain."""
        best: float | None = None
        node: Cgroup | None = self
        while node is not None:
            limit = node.limits.get(controller)
            if limit is not None and (best is None or limit < best):
                best = limit
            node = node.parent
        return best

    def delegated_uid(self) -> int | None:
        node: Cgroup | None = self
        while node is not None:
            if node.delegated_to is not None:
                return node.delegated_to
            node = node.parent
        return None

    def charge(self, controller: Controller, amount: float) -> None:
        node: Cgroup | None = self
        while node is not None:
            node.usage[controller] = node.usage.get(controller, 0.0) + amount
            node = node.parent

    def __repr__(self) -> str:
        return f"<Cgroup {self.path} procs={len(self.procs)}>"


class CgroupManager:
    """A cgroup hierarchy (v2 unified, or one-per-controller v1 modelled
    as a single tree with a version flag)."""

    def __init__(self, version: int = 2):
        if version not in (1, 2):
            raise EINVAL(f"cgroup version must be 1 or 2, got {version}")
        self.version = version
        self.root = Cgroup("", None, self)
        #: pid -> the one cgroup holding it, so attach/lookup never walk
        self._pid_cgroup: dict[int, Cgroup] = {}

    def cgroup_at(self, path: str) -> Cgroup | None:
        """The cgroup at ``path``, or None: a lookup that never raises."""
        node = self.root
        for part in path.split("/"):
            if part:
                node = node.children.get(part)
                if node is None:
                    return None
        return node

    def _resolve(self, path: str) -> Cgroup:
        node = self.cgroup_at(path)
        if node is None:
            raise ENOENT(f"no such cgroup: {path}")
        return node

    def exists(self, path: str) -> bool:
        return self.cgroup_at(path) is not None

    def create(self, path: str, by_uid: int = 0) -> Cgroup:
        """Create a cgroup; unprivileged uids need a delegated ancestor (v2)."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise EINVAL("cannot create the root cgroup")
        node = self.root
        for i, part in enumerate(parts):
            if part in node.children:
                node = node.children[part]
                continue
            if by_uid != 0:
                if self.version == 1:
                    raise EPERM(
                        "cgroup v1 has no delegation: unprivileged users cannot create cgroups"
                    )
                if node.delegated_uid() != by_uid:
                    raise EPERM(
                        f"uid {by_uid} has no delegated ancestor at {node.path}"
                    )
            child = Cgroup(part, node, self)
            node.children[part] = child
            node = child
        return node

    def remove(self, path: str, by_uid: int = 0) -> None:
        """rmdir a cgroup.  v2 rules: the cgroup must be empty (no
        processes, no child cgroups) or the call fails with EBUSY, and an
        unprivileged uid may only remove cgroups inside a subtree
        delegated to it — never the delegated root itself."""
        node = self._resolve(path)
        parent = node.parent
        if parent is None:
            raise EINVAL("cannot remove the root cgroup")
        if node.procs or node.children:
            raise EBUSY(f"cgroup {path} is not empty")
        if by_uid != 0:
            if self.version == 1:
                raise EPERM(
                    "cgroup v1 has no delegation: unprivileged users cannot remove cgroups"
                )
            if parent.delegated_uid() != by_uid:
                raise EPERM(f"uid {by_uid} cannot remove {path}")
        del parent.children[node.name]

    def delegate(self, path: str, uid: int, by_uid: int = 0) -> None:
        """Hand a subtree to ``uid`` (systemd-style Delegate=yes)."""
        if self.version == 1:
            raise EPERM("cgroup v1 does not support safe delegation")
        if by_uid != 0:
            raise EPERM("only root can delegate a cgroup subtree")
        self._resolve(path).delegated_to = uid

    def set_limit(self, path: str, controller: Controller, value: float, by_uid: int = 0) -> None:
        node = self._resolve(path)
        if self.version == 2 and controller not in V2_CONTROLLERS:
            raise EINVAL(f"controller {controller.value} is not available on cgroup v2")
        if by_uid != 0 and node.delegated_uid() != by_uid:
            raise EPERM(f"uid {by_uid} cannot modify {path}")
        node.limits[controller] = value

    def attach(self, path: str, pid: int, by_uid: int = 0) -> None:
        node = self._resolve(path)
        if by_uid != 0 and node.delegated_uid() != by_uid:
            raise EPERM(f"uid {by_uid} cannot attach processes to {path}")
        # A pid lives in exactly one cgroup (v2 semantics).
        self.detach(pid)
        node.procs.add(pid)
        self._pid_cgroup[pid] = node

    def detach(self, pid: int) -> None:
        """Drop ``pid`` from whichever cgroup holds it (process reaped)."""
        node = self._pid_cgroup.pop(pid, None)
        if node is not None:
            node.procs.discard(pid)

    def cgroup_of(self, pid: int) -> Cgroup | None:
        return self._pid_cgroup.get(pid)
