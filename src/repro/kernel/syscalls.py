"""The simulated kernel syscall surface.

This is where the paper's security analysis becomes executable.  The
rules implemented here (and exercised by the engine implementations):

- **User namespaces** grant their creator a full capability set *inside*
  the namespace only; unprivileged creation is gated by a sysctl.
- **uid_map writes** by an unprivileged process may map exactly one id —
  the writer's own — which is why HPC engines present a single uid
  inside containers (§3.2).
- **Block-device-backed filesystems** (in-kernel SquashFS) may only be
  mounted with CAP_SYS_ADMIN *in the initial namespace*: kernel drivers
  are not hardened against maliciously crafted images (§4.1.2), so a
  rootless user inside their own userns still cannot mount one.
- **FUSE mounts** are available to unprivileged users (the user/kernel
  interface is considered audited) when /dev/fuse exists.
- **OverlayFS in a userns** additionally requires kernel >= 5.11.
- **pivot_root** needs CAP_SYS_ADMIN in the caller's userns (which a
  rootless user obtains by creating one); **chroot** needs
  CAP_SYS_CHROOT and provides weaker isolation.
- **setuid binaries** elevate only in the initial user namespace and only
  where site policy permits them at all.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.fs.drivers import MountedView
from repro.fs.inode import FileNode
from repro.kernel.cgroups import CgroupManager
from repro.kernel.config import KernelConfig
from repro.kernel.credentials import Capability, Credentials, FULL_CAPS
from repro.kernel.errors import EINVAL, ENOENT, EPERM
from repro.kernel.mounts import MountEntry, MountTable
from repro.kernel.namespaces import (
    IdMapping,
    Namespace,
    NamespaceKind,
    UserNamespace,
)
from repro.kernel.process import ProcessState, SimProcess


class Kernel:
    """One node's kernel: processes, namespaces, mounts, cgroups."""

    def __init__(self, config: KernelConfig | None = None, hostname: str = "node"):
        self.config = config or KernelConfig()
        self.hostname = hostname
        self._pid_counter = itertools.count(1)
        self.processes: dict[int, SimProcess] = {}
        self.cgroups = CgroupManager(self.config.cgroup_version)
        self._userns_count = 1
        #: device nodes present on the host (populated by the hardware model)
        self.host_devices: set[str] = {"null", "zero", "urandom"}
        if self.config.fuse_available:
            self.host_devices.add("fuse")

        # Initial namespaces.
        self.initial_userns = UserNamespace(parent=None, creator_uid=0)
        self.initial_namespaces: dict[NamespaceKind, Namespace] = {
            NamespaceKind.USER: self.initial_userns
        }
        for kind in NamespaceKind:
            if kind is not NamespaceKind.USER:
                self.initial_namespaces[kind] = Namespace(kind, owner=self.initial_userns)

        self._mount_ns_counter = itertools.count(1)
        initial_table = MountTable(next(self._mount_ns_counter))
        self.init = SimProcess(
            pid=next(self._pid_counter),
            creds=Credentials(uid=0, gid=0),
            namespaces=self.initial_namespaces,
            mount_table=initial_table,
            argv=("init",),
        )
        self.processes[self.init.pid] = self.init

    # ------------------------------------------------------------------ procs
    def spawn(
        self,
        parent: SimProcess | None = None,
        uid: int | None = None,
        gid: int | None = None,
        argv: tuple[str, ...] = ("sh",),
        static_binary: bool = False,
    ) -> SimProcess:
        """fork+exec: child inherits the parent's namespaces and mounts."""
        parent = parent or self.init
        if uid is not None and uid != parent.creds.uid and not parent.creds.has(Capability.SETUID):
            raise EPERM(f"pid {parent.pid} (uid {parent.creds.uid}) cannot switch to uid {uid}")
        creds = (
            Credentials(uid=uid, gid=gid if gid is not None else uid)
            if uid is not None
            else parent.creds.clone()
        )
        child = SimProcess(
            pid=next(self._pid_counter),
            creds=creds,
            namespaces=dict(parent.namespaces),
            mount_table=parent.mount_table,
            parent=parent,
            argv=argv,
        )
        child.root = parent.root
        child.cwd = parent.cwd
        child.environ = dict(parent.environ)
        child.static_binary = static_binary
        parent.children.append(child)
        self.processes[child.pid] = child
        return child

    def exit(self, proc: SimProcess, code: int = 0) -> None:
        proc.exit(code)

    def reap(self, proc: SimProcess) -> None:
        """wait(2) on an exited process: its pid, its slot in the
        parent's children and its cgroup membership are released.  A
        running process cannot be reaped; reaping twice is a no-op."""
        if proc.state is ProcessState.RUNNING:
            raise EINVAL(f"pid {proc.pid} is still running")
        if self.processes.pop(proc.pid, None) is None:
            return
        proc.state = ProcessState.DEAD
        parent = proc.parent
        if parent is not None:
            parent.children.remove(proc)
        self.cgroups.detach(proc.pid)

    # ----------------------------------------------------------- capabilities
    def has_capability(
        self,
        proc: SimProcess,
        cap: Capability,
        target: Namespace | UserNamespace | None = None,
    ) -> bool:
        """Does ``proc`` hold ``cap`` with respect to ``target``?

        The kernel rule: the capability must be in the process's set, and
        the process's user namespace must be the target's owner namespace
        or an ancestor of it.
        """
        if target is None:
            target_userns = proc.userns
        elif isinstance(target, UserNamespace):
            target_userns = target
        else:
            target_userns = target.owner or self.initial_userns
        if proc.creds.has(cap) and proc.userns.is_ancestor_of(target_userns):
            return True
        # ns_capable owner rule: a process whose euid created the target
        # namespace holds full capabilities *towards it* (this is what
        # lets a user nsenter their own rootless container).
        return (
            proc.userns.is_ancestor_of(target_userns)
            and not target_userns.is_initial
            and target_userns.creator_uid == proc.euid
        )

    # ------------------------------------------------------------- namespaces
    def unshare(self, proc: SimProcess, kinds: _t.Iterable[NamespaceKind]) -> None:
        """Move ``proc`` into fresh namespaces of the given kinds.

        USER is processed first (as the real kernel does) so that a fully
        unprivileged ``unshare(USER|MNT)`` works: the new userns supplies
        the CAP_SYS_ADMIN needed for the mount namespace.
        """
        kinds = set(kinds)
        if NamespaceKind.USER in kinds:
            self._unshare_user(proc)
            kinds.discard(NamespaceKind.USER)
        if not kinds:
            return
        # Unsharing a non-user namespace changes neither the caller's
        # userns nor its capabilities, so one check covers every kind.
        if not self.has_capability(proc, Capability.SYS_ADMIN):
            kind = next(iter(kinds))
            raise EPERM(
                f"unshare({kind.value}) requires CAP_SYS_ADMIN in the current userns"
            )
        owner = proc.userns
        for kind in kinds:
            if kind is NamespaceKind.MNT:
                proc.mount_table = proc.mount_table.clone(next(self._mount_ns_counter))
            proc.namespaces[kind] = Namespace(kind, owner=owner)

    def _unshare_user(self, proc: SimProcess) -> None:
        if not self.config.unprivileged_userns and not self.has_capability(
            proc, Capability.SYS_ADMIN
        ):
            raise EPERM(
                "unprivileged user namespaces are disabled on this system "
                "(kernel.unprivileged_userns_clone=0)"
            )
        if self._userns_count >= self.config.max_user_namespaces:
            raise EPERM("user.max_user_namespaces exceeded")
        new_ns = UserNamespace(parent=proc.userns, creator_uid=proc.euid)
        self._userns_count += 1
        proc.namespaces[NamespaceKind.USER] = new_ns
        # Creator holds the full capability set inside the new namespace.
        proc.creds.capabilities = FULL_CAPS

    def write_uid_map(
        self,
        ns: UserNamespace,
        mappings: list[IdMapping],
        writer: SimProcess,
        gid_mappings: list[IdMapping] | None = None,
    ) -> None:
        """Write /proc/<pid>/uid_map for a freshly created userns.

        Unprivileged writers may install exactly one single-id mapping of
        their own uid; multi-range maps (subuid) need CAP_SETUID in the
        parent namespace (the newuidmap helper route).
        """
        if ns.mappings_written:
            raise EINVAL("uid_map already written")
        parent = ns.parent
        assert parent is not None, "initial namespace has a fixed map"
        privileged = writer.creds.has(Capability.SETUID) and writer.userns.is_ancestor_of(parent)
        if not privileged:
            if len(mappings) != 1 or mappings[0].count != 1:
                raise EPERM("unprivileged uid_map writes may map exactly one id")
            # "outside" ids are expressed in the parent namespace; translate
            # to the initial namespace for comparison with the (host-relative)
            # writer credentials.
            outside_host = parent.uid_to_host(mappings[0].outside)
            if outside_host != writer.euid:
                raise EPERM(
                    f"unprivileged writer may only map its own uid "
                    f"({writer.euid}), not {mappings[0].outside}"
                )
            if gid_mappings is not None and (
                len(gid_mappings) != 1 or gid_mappings[0].count != 1
            ):
                raise EPERM("unprivileged gid_map writes may map exactly one id")
        ns.set_mappings(mappings, gid_mappings)

    def setns(self, proc: SimProcess, namespace: Namespace) -> None:
        """Join an existing namespace (requires CAP_SYS_ADMIN over it)."""
        if not self.has_capability(proc, Capability.SYS_ADMIN, namespace):
            raise EPERM(f"setns to {namespace!r} denied")
        proc.namespaces[namespace.kind] = namespace
        if namespace.kind is NamespaceKind.USER:
            # joining a userns yields the full capability set inside it
            proc.creds.capabilities = FULL_CAPS

    # ----------------------------------------------------------------- mounts
    def mount(
        self,
        proc: SimProcess,
        view: MountedView,
        target: str,
        flags: _t.Iterable[str] = (),
    ) -> MountEntry:
        driver = view.driver
        if driver.requires_block_device:
            # In-kernel block-device parsers: initial-namespace root only.
            if not (proc.in_initial_userns and self.has_capability(proc, Capability.SYS_ADMIN)):
                raise EPERM(
                    f"mounting {driver.name} parses raw block-device data; "
                    "requires CAP_SYS_ADMIN in the *initial* user namespace"
                )
        elif driver.is_fuse:
            if not self.config.fuse_available or "fuse" not in self.host_devices:
                raise ENOENT("/dev/fuse is not available on this node")
            # fusermount is a universally-present setuid helper; any user may
            # create FUSE mounts in their own mount namespace.
        elif driver.name == "overlay":
            if not self.has_capability(proc, Capability.SYS_ADMIN):
                raise EPERM("overlay mount requires CAP_SYS_ADMIN in the current userns")
            if not proc.in_initial_userns and not self.config.unprivileged_overlayfs:
                raise EPERM(
                    f"kernel {self.config.version} does not support OverlayFS "
                    "mounts inside a user namespace (needs >= 5.11)"
                )
        else:  # bind and friends
            if not self.has_capability(proc, Capability.SYS_ADMIN):
                raise EPERM(f"{driver.name} mount requires CAP_SYS_ADMIN in the current userns")
        return proc.mount_table.add(target, view, flags)

    def umount(self, proc: SimProcess, target: str) -> None:
        if not self.has_capability(proc, Capability.SYS_ADMIN):
            raise EPERM("umount requires CAP_SYS_ADMIN in the current userns")
        proc.mount_table.remove(target)

    def pivot_root(self, proc: SimProcess, new_root: str) -> None:
        """Swap the root to ``new_root`` (must be a mount point)."""
        if not self.has_capability(proc, Capability.SYS_ADMIN):
            raise EPERM("pivot_root requires CAP_SYS_ADMIN in the current userns")
        if not proc.mount_table.is_mount_point(new_root):
            raise EINVAL(f"pivot_root target {new_root} is not a mount point")
        proc.root = new_root.rstrip("/") or "/"

    def chroot(self, proc: SimProcess, path: str) -> None:
        if not self.has_capability(proc, Capability.SYS_CHROOT):
            raise EPERM("chroot requires CAP_SYS_CHROOT")
        proc.root = path.rstrip("/") or "/"

    # ------------------------------------------------------------------ setuid
    def exec_setuid(self, proc: SimProcess, binary: FileNode, argv: tuple[str, ...]) -> SimProcess:
        """Execute a setuid binary: the child runs with euid = file owner.

        Honored only in the initial user namespace (mounts inside a userns
        are implicitly nosuid for ids not mapped from the parent).
        """
        if not binary.setuid:
            raise EINVAL("binary has no setuid bit")
        if not self.config.allow_setuid_binaries:
            raise EPERM("site policy: setuid binaries are disabled on compute nodes")
        if not proc.in_initial_userns:
            raise EPERM("setuid bits are ignored outside the initial user namespace")
        child = self.spawn(parent=proc, argv=argv)
        child.creds = Credentials(uid=proc.creds.uid, gid=proc.creds.gid, euid=binary.uid, egid=binary.gid)
        return child

    # ------------------------------------------------------------------ ptrace
    def ptrace_attach(self, tracer: SimProcess, tracee: SimProcess) -> None:
        same_user = tracer.creds.uid == tracee.creds.uid
        if not same_user and not self.has_capability(tracer, Capability.SYS_PTRACE, tracee.userns):
            raise EPERM(f"pid {tracer.pid} may not ptrace pid {tracee.pid}")
        if not tracer.creds.has(Capability.SYS_PTRACE) and not same_user:
            raise EPERM("ptrace requires CAP_SYS_PTRACE or same-uid target")
        tracee.ptraced_by = tracer.pid

    # ----------------------------------------------------------------- devices
    def expose_device(self, proc: SimProcess, device: str, by: SimProcess | None = None) -> None:
        """Make a host device node visible inside ``proc``'s mount ns.

        Privilege is evaluated against ``by`` (the runtime/daemon doing
        the setup) when given, else against ``proc`` itself: the actor
        needs CAP_MKNOD towards the initial namespace, or a device-cgroup
        grant (``grant_device``) issued by the WLM.
        """
        actor = by or proc
        if device not in self.host_devices:
            raise ENOENT(f"no such host device: {device}")
        if not (
            self.has_capability(actor, Capability.MKNOD, self.initial_userns)
            or device in getattr(actor, "granted_devices", set())
        ):
            raise EPERM(f"process {actor.pid} may not expose device {device}")
        granted = getattr(proc, "exposed_devices", set())
        granted.add(device)
        proc.exposed_devices = granted  # type: ignore[attr-defined]

    def grant_device(self, proc: SimProcess, device: str) -> None:
        """WLM/device-cgroup grant: allow ``proc`` to expose ``device``."""
        granted = getattr(proc, "granted_devices", set())
        granted.add(device)
        proc.granted_devices = granted  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"<Kernel {self.hostname} v{self.config.version} procs={len(self.processes)}>"
