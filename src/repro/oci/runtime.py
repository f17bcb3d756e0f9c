"""OCI runtimes (runc, crun) and the container lifecycle.

The runtime is "a lower-level component that handles image and process
management [and] sets up the user namespace, thus starting the container
process" (§3.1).  Engines call into a runtime; the runtime calls into
the (simulated) kernel, so every namespace/mount permission rule applies
exactly once, here.
"""

from __future__ import annotations

import enum
import functools
import typing as _t

from repro.fs.drivers import MountedView, mount_bind
from repro.fs.inode import DirNode, FileNode
from repro.fs.perf import PROFILES
from repro.fs.tree import FileTree
from repro.kernel.credentials import Capability
from repro.kernel.errors import EINVAL, EPERM
from repro.kernel.namespaces import IdMapping, NamespaceKind
from repro.kernel.process import ProcessState, SimProcess
from repro.kernel.syscalls import Kernel
from repro.oci.bundle import Bundle
from repro.oci.hooks import HookPoint, HookRegistry
from repro.world import world


@functools.lru_cache(maxsize=64)
def _namespaces_line(requested: frozenset[NamespaceKind]) -> str:
    return f"namespaces: {sorted(k.value for k in requested)}"


class ContainerState(enum.Enum):
    CREATING = "creating"
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    DELETED = "deleted"


class Container:
    """A created/running container instance."""

    def __init__(self, container_id: str, bundle: Bundle, runtime: "OCIRuntime"):
        self.id = container_id
        self.bundle = bundle
        self.runtime = runtime
        self.state = ContainerState.CREATING
        self.proc: SimProcess | None = None
        self.exit_code: int | None = None
        #: extra mounts inside the container: target -> view
        self.mounts: dict[str, MountedView] = {}
        #: diagnostics trail (namespaces created, hooks run, mounts made)
        self.events: list[str] = []
        #: the engine's per-container monitor (conmon), if it runs one
        self.monitor: _t.Any = None
        #: set by a successful create, dropped by delete
        self._hooks: HookRegistry | None = None
        self._context: dict | None = None

    @property
    def rootfs(self) -> MountedView:
        return self.bundle.rootfs

    def resolve(self, path: str):
        """Resolve a path through bind mounts, then the rootfs."""
        for target in sorted(self.mounts, key=len, reverse=True):
            if path == target or path.startswith(target.rstrip("/") + "/"):
                inner = path[len(target.rstrip("/")) :] or "/"
                node = self.mounts[target].lookup(inner)
                if node is not None:
                    return node
        return self.rootfs.lookup(path)

    def exists(self, path: str) -> bool:
        return self.resolve(path) is not None

    def namespaces_created(self) -> set[NamespaceKind]:
        assert self.proc is not None
        kernel = self.runtime.kernel
        created = set()
        for kind, ns in self.proc.namespaces.items():
            if ns is not kernel.initial_namespaces.get(kind):
                created.add(kind)
        return created

    def log(self, message: str) -> None:
        self.events.append(message)

    def __repr__(self) -> str:
        return f"<Container {self.id} {self.state.value}>"


class OCIRuntime:
    """Base OCI runtime: create → start → kill → delete, with hooks."""

    name = "oci-runtime"
    implementation_language = "?"
    #: process startup overhead in seconds (fork/exec, cgroup setup, ...)
    startup_overhead = 0.050
    supports_hooks = True

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.containers: dict[str, Container] = {}

    # -- lifecycle -------------------------------------------------------------
    def create(
        self,
        bundle: Bundle,
        owner: SimProcess,
        container_id: str | None = None,
        extra_hooks: HookRegistry | None = None,
    ) -> Container:
        problems = bundle.validate()
        if problems:
            raise EINVAL(f"invalid bundle: {problems}")
        cid = container_id or f"ctr-{next(world.container)}"
        if cid in self.containers:
            raise EINVAL(f"container id {cid} already in use")
        container = Container(cid, bundle, self)
        self.containers[cid] = container
        try:
            return self._create_inner(container, bundle, owner, extra_hooks)
        except BaseException:
            # failed create must not leak a half-built container record,
            # nor the process it spawned
            self.containers.pop(cid, None)
            proc = container.proc
            if proc is not None:
                if proc.state is ProcessState.RUNNING:
                    self.kernel.exit(proc, 137)
                self.kernel.reap(proc)
            raise

    def _create_inner(
        self,
        container: Container,
        bundle: Bundle,
        owner: SimProcess,
        extra_hooks: HookRegistry | None,
    ) -> Container:
        hooks = bundle.spec.hooks
        if extra_hooks is not None:
            hooks = hooks.merged_with(extra_hooks)
        context = {
            "container": container,
            "bundle": bundle,
            "kernel": self.kernel,
            "runtime": self,
            "owner": owner,
        }

        proc = self.kernel.spawn(parent=owner, argv=bundle.spec.args)
        container.proc = proc
        context["proc"] = proc

        # 1. namespaces (USER first — see Kernel.unshare)
        requested = bundle.spec.namespaces.create
        self.kernel.unshare(proc, requested)
        if NamespaceKind.USER in requested:
            self.kernel.write_uid_map(
                proc.userns,
                [IdMapping(inside=self._inside_uid(bundle), outside=proc.euid)],
                writer=proc,
            )
        container.log(_namespaces_line(requested))

        hooks.run(HookPoint.CREATE_RUNTIME, context)

        # 2. rootfs mount + pivot_root
        self.kernel.mount(proc, bundle.rootfs, "/run/oci/rootfs")
        self.kernel.pivot_root(proc, "/run/oci/rootfs")
        container.log("rootfs mounted and pivoted")

        # 3. bind mounts (host libraries, datasets, device libs)
        for bind in bundle.spec.bind_mounts:
            view = self._bind_view(bind.source_tree, bind.source_path)
            self.kernel.mount(proc, view, bind.target_path)
            container.mounts[bind.target_path] = view
            container.log(f"bind {bind.source_path} -> {bind.target_path}")

        # 4. devices — privilege comes from the invoking daemon/user (the
        # WLM grants devices to the job's user process, §4.1.6)
        for device in bundle.spec.devices:
            self.kernel.expose_device(proc, device, by=owner)
            container.log(f"device {device}")

        # 5. cgroup placement
        if bundle.spec.cgroup_path is not None:
            by_uid = 0 if owner.creds.is_root else owner.creds.uid
            mgr = self.kernel.cgroups
            if not mgr.exists(bundle.spec.cgroup_path):
                mgr.create(bundle.spec.cgroup_path, by_uid=by_uid)
            mgr.attach(bundle.spec.cgroup_path, proc.pid, by_uid=by_uid)

        hooks.run(HookPoint.CREATE_CONTAINER, context)
        hooks.run(HookPoint.PRESTART, context)
        container.state = ContainerState.CREATED
        container._context = context
        container._hooks = hooks
        return container

    def start(self, container: Container) -> None:
        if container.state is not ContainerState.CREATED:
            raise EINVAL(f"cannot start container in state {container.state.value}")
        hooks = container._hooks
        context = container._context
        assert hooks is not None and context is not None
        hooks.run(HookPoint.START_CONTAINER, context)
        container.state = ContainerState.RUNNING
        hooks.run(HookPoint.POSTSTART, context)
        container.log("started")

    def kill(self, container: Container, exit_code: int = 137) -> None:
        if container.state is not ContainerState.RUNNING:
            raise EINVAL(f"cannot kill container in state {container.state.value}")
        assert container.proc is not None
        self.kernel.exit(container.proc, exit_code)
        container.exit_code = exit_code
        container.state = ContainerState.STOPPED
        container.log(f"killed ({exit_code})")

    def finish(self, container: Container, exit_code: int = 0) -> None:
        """Normal process exit."""
        if container.state is not ContainerState.RUNNING:
            raise EINVAL(f"container not running: {container.state.value}")
        assert container.proc is not None
        self.kernel.exit(container.proc, exit_code)
        container.exit_code = exit_code
        container.state = ContainerState.STOPPED

    def delete(self, container: Container) -> None:
        """Run the poststop hooks, drop the record and reap the container
        process (a created-but-never-started one is killed first).  The
        record and the process go even when a poststop hook raises."""
        if container.state is ContainerState.RUNNING:
            raise EPERM("cannot delete a running container")
        hooks = container._hooks
        try:
            if hooks is not None:
                hooks.run(HookPoint.POSTSTOP, container._context)
        finally:
            container.state = ContainerState.DELETED
            self.containers.pop(container.id, None)
            # the context refers back to the container: drop the cycle
            container._hooks = container._context = None
            proc = container.proc
            if proc is not None:
                if proc.state is ProcessState.RUNNING:
                    self.kernel.exit(proc, 137)
                self.kernel.reap(proc)

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _inside_uid(bundle: Bundle) -> int:
        user = bundle.spec.user
        if user in ("root", "0"):
            return 0
        try:
            return int(user)
        except ValueError:
            return 1000

    @staticmethod
    def _bind_view(source_tree: FileTree, source_path: str) -> MountedView:
        node = source_tree.get(source_path)
        if isinstance(node, DirNode):
            sub = FileTree(root=node)
        elif isinstance(node, FileNode):
            sub = FileTree()
            sub.create_file("/" + source_path.rsplit("/", 1)[-1], data=node.data, size=None if node.data is not None else node.size)
        else:
            raise EINVAL(f"cannot bind-mount {source_path}")
        return mount_bind(sub, PROFILES["nvme"])

    def startup_cost(self) -> float:
        return self.startup_overhead

    def __repr__(self) -> str:
        return f"<{type(self).__name__} containers={len(self.containers)}>"


class RuncRuntime(OCIRuntime):
    """The OCI reference runtime, split off from Docker (Go)."""

    name = "runc"
    implementation_language = "Go"
    startup_overhead = 0.055


class CrunRuntime(OCIRuntime):
    """The containers-project runtime (C): faster, lighter."""

    name = "crun"
    implementation_language = "C"
    startup_overhead = 0.018
