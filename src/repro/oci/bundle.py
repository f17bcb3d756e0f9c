"""OCI runtime bundles: rootfs plus the config.json runtime spec."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.fs.drivers import MountedView
from repro.fs.tree import FileTree
from repro.kernel.namespaces import NamespaceKind
from repro.oci.hooks import HookRegistry
from repro.oci.image import ImageConfig


@dataclasses.dataclass(frozen=True)
class NamespaceRequest:
    """Which namespaces the runtime should create/join for the container.

    Cloud-native defaults create all of them; HPC engines deliberately
    skip NET and IPC ("unused isolations ... are not set up to reduce
    complexity and attack surface, or because they may interfere with
    HPC applications", §3.2).
    """

    create: frozenset[NamespaceKind] = frozenset(
        {
            NamespaceKind.USER,
            NamespaceKind.MNT,
            NamespaceKind.PID,
            NamespaceKind.NET,
            NamespaceKind.IPC,
            NamespaceKind.UTS,
        }
    )

    @classmethod
    def hpc_minimal(cls) -> "NamespaceRequest":
        """User + mount only: the HPC weak-isolation setup (one shared,
        immutable request)."""
        return _HPC_MINIMAL

    @classmethod
    def full(cls) -> "NamespaceRequest":
        return _FULL

    def __contains__(self, kind: NamespaceKind) -> bool:
        return kind in self.create


_FULL = NamespaceRequest()
_HPC_MINIMAL = NamespaceRequest(create=frozenset({NamespaceKind.USER, NamespaceKind.MNT}))


@dataclasses.dataclass
class BindMountSpec:
    """A host path to overlay into the container (device libs, datasets)."""

    source_tree: FileTree
    source_path: str
    target_path: str
    read_only: bool = True


@dataclasses.dataclass
class RuntimeSpec:
    """config.json: process, mounts, namespaces, hooks."""

    args: tuple[str, ...]
    env: dict[str, str] = dataclasses.field(default_factory=dict)
    user: str = "root"
    cwd: str = "/"
    namespaces: NamespaceRequest = dataclasses.field(default_factory=NamespaceRequest)
    bind_mounts: list[BindMountSpec] = dataclasses.field(default_factory=list)
    hooks: HookRegistry = dataclasses.field(default_factory=HookRegistry)
    #: cgroup path the container process should be placed in
    cgroup_path: str | None = None
    #: devices the container needs exposed (e.g. "nvidia0")
    devices: tuple[str, ...] = ()
    readonly_rootfs: bool = False

    @classmethod
    def from_image_config(
        cls, config: ImageConfig, namespaces: NamespaceRequest | None = None
    ) -> "RuntimeSpec":
        return cls(
            args=config.argv(),
            env=dict(config.env),
            user=config.user,
            cwd=config.workdir,
            namespaces=namespaces or NamespaceRequest(),
        )


@dataclasses.dataclass
class Bundle:
    """A runtime bundle: a root filesystem view and its spec.

    ``rootfs`` is a mounted view (overlay of image layers, a squash
    mount, or an extracted directory) — which one it is determines the
    IO behaviour of the running container.
    """

    rootfs: MountedView
    spec: RuntimeSpec
    #: free-form origin note for diagnostics ("overlay of 5 layers", ...)
    origin: str = ""

    def validate(self) -> list[str]:
        """Return a list of spec problems (empty when valid)."""
        problems = []
        if not self.spec.args:
            problems.append("process args are empty")
        if not self.rootfs.exists("/"):
            problems.append("rootfs is empty")
        for bind in self.spec.bind_mounts:
            if not bind.source_tree.exists(bind.source_path):
                problems.append(f"bind source missing: {bind.source_path}")
        return problems
