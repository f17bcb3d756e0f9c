"""Mount drivers and mounted views.

A :class:`MountDriver` describes *how* a filesystem gets mounted — and
therefore which kernel security rules apply (see
:mod:`repro.kernel.syscalls`):

========================  ===========  ==================  =============
driver                    is_fuse      needs block device  runs in
========================  ===========  ==================  =============
bind                      no           no                  kernel
overlay (kernel)          no           no                  kernel
fuse-overlayfs            yes          no                  userspace
squashfs (kernel)         no           **yes**             kernel
squashfuse                yes          no                  userspace
========================  ===========  ==================  =============

The asymmetry in the last two rows is the paper's §4.1.2 story: the
in-kernel SquashFS driver parses raw block-device data, so the kernel is
exposed to maliciously crafted images and unprivileged users must not
reach it; SquashFUSE keeps the parser in userspace at the price of a
user/kernel crossing per operation (≈ an order of magnitude lower random
IOPS).

Mounting produces a :class:`MountedView`: a read (or union-read/write)
facade over one or more file trees with a derived cost model.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from repro.fs.inode import DirNode, FileNode, Node, SymlinkNode, WhiteoutNode
from repro.fs.perf import (
    FUSE_OVERLAY_BW_SCALE,
    FUSE_OVERLAY_PER_OP,
    IOCostModel,
    OVERLAY_KERNEL_PER_LAYER,
    PROFILES,
)
from repro.fs.tree import FileTree, FsError
from repro.fs.images import SquashImage
from repro.run import run


@dataclasses.dataclass(frozen=True)
class MountDriver:
    """Static description of a mount mechanism."""

    name: str
    is_fuse: bool
    requires_block_device: bool
    userspace: bool
    kernel_module: str | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


BindDriver = MountDriver(
    name="bind", is_fuse=False, requires_block_device=False, userspace=False
)
OverlayKernelDriver = MountDriver(
    name="overlay",
    is_fuse=False,
    requires_block_device=False,
    userspace=False,
    kernel_module="overlay",
)
FuseOverlayDriver = MountDriver(
    name="fuse-overlayfs", is_fuse=True, requires_block_device=False, userspace=True
)
SquashKernelDriver = MountDriver(
    name="squashfs",
    is_fuse=False,
    requires_block_device=True,
    userspace=False,
    kernel_module="squashfs",
)
SquashFuseDriver = MountDriver(
    name="squashfuse", is_fuse=True, requires_block_device=False, userspace=True
)

ALL_DRIVERS = [BindDriver, OverlayKernelDriver, FuseOverlayDriver, SquashKernelDriver, SquashFuseDriver]


class MountedView:
    """A union view over ordered layers (last layer is uppermost).

    ``writable`` layers accept writes (overlay upper dir); read-only views
    (squash mounts) reject them.  Costs are charged against the view's
    derived cost model.
    """

    def __init__(
        self,
        driver: MountDriver,
        layers: _t.Sequence[FileTree],
        cost_model: IOCostModel,
        writable: bool = False,
        upper: FileTree | None = None,
        source_image: SquashImage | None = None,
    ):
        if not layers and upper is None:
            raise FsError("mount requires at least one layer")
        self.driver = driver
        self.layers = list(layers)
        self.cost_model = cost_model
        self.writable = writable
        self.upper = upper if upper is not None else (FileTree() if writable else None)
        self.source_image = source_image
        self.stats = {"opens": 0, "bytes_read": 0, "bytes_written": 0, "copy_ups": 0}
        if run.tracer.enabled:
            run.tracer.instant(
                "fs.mount", driver=driver.name, layers=len(self.layers),
                writable=writable,
            )
        if run.metrics.enabled:
            run.metrics.inc("fs.mounts", driver=driver.name)

    # -- union lookup --------------------------------------------------------
    def _all_trees_top_down(self) -> list[FileTree]:
        trees: list[FileTree] = []
        if self.upper is not None:
            trees.append(self.upper)
        trees.extend(reversed(self.layers))
        return trees

    def _union_raw(self, path: str) -> Node | None:
        """Top-down, no-follow lookup of a literal path across layers."""
        for tree in self._all_trees_top_down():
            node = tree.lookup(path, follow_symlinks=False)
            if isinstance(node, WhiteoutNode):
                return None
            if node is not None:
                return node
        return None

    def lookup(self, path: str, _depth: int = 0) -> Node | None:
        """Union lookup resolving symlinks against the *union*, so a link
        in one layer may point at content provided by another layer."""
        if _depth > 40:
            raise FsError(f"too many levels of symbolic links: {path}")
        from repro.fs.tree import split_parts

        parts = split_parts(path)
        if not parts:
            return self._all_trees_top_down()[0].root
        node: Node | None = None
        for i in range(len(parts)):
            prefix = "/" + "/".join(parts[: i + 1])
            node = self._union_raw(prefix)
            if node is None:
                return None
            if isinstance(node, SymlinkNode):
                if node.target.startswith("/"):
                    target = node.target
                else:
                    target = "/" + "/".join(parts[:i] + [node.target])
                rest = parts[i + 1 :]
                full = target + ("/" + "/".join(rest) if rest else "")
                return self.lookup(full, _depth=_depth + 1)
        return node

    def exists(self, path: str) -> bool:
        return self.lookup(path) is not None

    def readdir(self, path: str) -> list[str]:
        names: set[str] = set()
        hidden: set[str] = set()
        found_dir = False
        for tree in self._all_trees_top_down():
            node = tree.lookup(path, follow_symlinks=True)
            if isinstance(node, DirNode):
                found_dir = True
                for name, child in node.children.items():
                    if isinstance(child, WhiteoutNode):
                        hidden.add(name)
                    elif name not in hidden:
                        names.add(name)
        if not found_dir:
            raise FsError(f"no such directory: {path}")
        self.stats["opens"] += 1
        return sorted(names)

    # -- costed operations ----------------------------------------------------
    def open(self, path: str) -> float:
        node = self.lookup(path)
        if node is None:
            raise FsError(f"no such path: {path}")
        self.stats["opens"] += 1
        depth = max(1, len([p for p in path.split("/") if p]))
        return self.cost_model.metadata_cost(depth)

    def read(self, path: str, random: bool = False) -> tuple[float, int]:
        node = self.lookup(path)
        if not isinstance(node, FileNode):
            raise FsError(f"not a file: {path}")
        self.stats["bytes_read"] += node.size
        if random:
            n_ops = max(1, node.size // 4096)
            cost = self.cost_model.random_read_cost(n_ops)
        else:
            cost = self.cost_model.sequential_read_cost(node.size)
        if run.metrics.enabled:
            op = "randread" if random else "read"
            run.metrics.inc("fs.io.bytes", node.size, driver=self.driver.name, op=op)
            run.metrics.observe("fs.io.latency", cost, driver=self.driver.name, op=op)
        return cost, node.size

    def write(self, path: str, data: bytes | None = None, size: int | None = None) -> float:
        if not self.writable or self.upper is None:
            raise FsError(f"read-only mount ({self.driver.name})")
        cost = 0.0
        existing = self.lookup(path)
        if isinstance(existing, FileNode) and self.upper.lookup(path) is None:
            # Copy-up: the overlay must pull the lower file into the upper
            # layer before modifying it.  Feed the profile counter too, so
            # view-level ``stats["copy_ups"]`` and the global
            # ``cow_copy_ups`` roll-up agree on what a copy-up is: any
            # write that had to duplicate shared lower content first.
            cost += self.cost_model.sequential_read_cost(existing.size)
            cost += self.cost_model.write_cost(existing.size)
            self.stats["copy_ups"] += 1
            counters = run.counters
            if counters.enabled:
                counters.cow_copy_ups += 1
        n = len(data) if data is not None else int(size or 0)
        self.upper.create_file(path, data=data, size=size)
        self.stats["bytes_written"] += n
        cost += self.cost_model.write_cost(n)
        if run.metrics.enabled:
            run.metrics.inc("fs.io.bytes", n, driver=self.driver.name, op="write")
            run.metrics.observe("fs.io.latency", cost, driver=self.driver.name, op="write")
        return cost

    def remove(self, path: str) -> None:
        if not self.writable or self.upper is None:
            raise FsError(f"read-only mount ({self.driver.name})")
        if self.lookup(path) is None:
            raise FsError(f"no such path: {path}")
        if self.upper.exists(path):
            self.upper.remove(path)
        # Hide any lower-layer entry.
        for tree in self.layers:
            if tree.exists(path):
                self.upper.whiteout(path)
                break

    def load_all(self, top: str = "/") -> float:
        """Cost of walking and reading every file (cold application start)."""
        total = 0.0
        if self.upper is None and len(self.layers) == 1:
            # Single read-only layer (the squash-mount case): every file in
            # the layer is authoritative, so skip the per-path union lookup
            # and charge the same open+read costs directly.  The cost sum is
            # memoized in the layer tree's scan cache — for a frozen image
            # tree the memo lives on the shared node, so every mount of the
            # same image (across nodes and runs) walks it exactly once.
            layer = self.layers[0]
            cache = layer.scan_cache(top)
            key = ("load_all", top, self.cost_model)
            entry = cache.get(key)
            if entry is None:
                model = self.cost_model
                files = layer.files_list(top)
                n_bytes = 0
                for path, node in files:
                    n_bytes += node.size
                    depth = max(1, len([p for p in path.split("/") if p]))
                    total += model.metadata_cost(depth)
                    total += model.sequential_read_cost(node.size)
                entry = (total, len(files), n_bytes)
                cache[key] = entry
            total, n_files, n_bytes = entry
            self.stats["opens"] += n_files
            self.stats["bytes_read"] += n_bytes
            if run.tracer.enabled:
                run.tracer.complete(
                    "fs.load_all", total, driver=self.driver.name,
                    files=n_files, bytes=n_bytes,
                )
            if run.metrics.enabled:
                run.metrics.inc("fs.io.files", n_files, driver=self.driver.name, op="read")
                run.metrics.inc("fs.io.bytes", n_bytes, driver=self.driver.name, op="read")
            return total
        seen: set[str] = set()
        for tree in self._all_trees_top_down():
            for path, node in tree.files(top):
                if path in seen or self.lookup(path) is not node:
                    continue
                seen.add(path)
                total += self.open(path)
                cost, _ = self.read(path)
                total += cost
        if run.tracer.enabled:
            run.tracer.complete(
                "fs.load_all", total, driver=self.driver.name, files=len(seen)
            )
        return total

    def num_files(self) -> int:
        seen: set[str] = set()
        for tree in self._all_trees_top_down():
            for path, node in tree.files():
                if self.lookup(path) is node:
                    seen.add(path)
        return len(seen)


# -- mount constructors ---------------------------------------------------------

def mount_bind(source_tree: FileTree, backend_model: IOCostModel) -> MountedView:
    """Bind-mount an existing tree; costs are the backend's."""
    return MountedView(BindDriver, [source_tree], backend_model, writable=False)


def _check_fuse_alive(driver: MountDriver) -> None:
    """Fault gate for userspace mounts: while an armed plan has a
    ``fuse_death`` window open, starting a FUSE daemon fails — the
    engine's mount raises :class:`FsError` and its cleanup guarantee
    (no half-built container, no stray mounts) takes over."""
    if run.faults.enabled:
        fault = run.faults.active("fs.fuse")
        if fault is not None:
            raise FsError(
                f"{driver.name}: FUSE daemon died (injected fault until "
                f"t={fault.until:.1f})"
            )


@functools.lru_cache(maxsize=64)
def _fuse_overlay_model(backend_model: IOCostModel) -> IOCostModel:
    """fuse-overlayfs costs over a backend: fixed by the backend, so
    derived once per backend model rather than once per mount."""
    model = backend_model.with_overhead(FUSE_OVERLAY_PER_OP, FUSE_OVERLAY_BW_SCALE)
    return dataclasses.replace(model, name="fuse-overlayfs")


def mount_overlay(
    layers: _t.Sequence[FileTree],
    backend_model: IOCostModel,
    fuse: bool = False,
    writable: bool = True,
) -> MountedView:
    """Union-mount ``layers`` (bottom first) with an optional upper dir."""
    if fuse:
        _check_fuse_alive(FuseOverlayDriver)
        model = _fuse_overlay_model(backend_model)
        driver = FuseOverlayDriver
    else:
        model = backend_model.with_overhead(OVERLAY_KERNEL_PER_LAYER * max(1, len(layers)))
        model = dataclasses.replace(model, name="overlay-kernel")
        driver = OverlayKernelDriver
    return MountedView(driver, layers, model, writable=writable)


def mount_squash(image: SquashImage, fuse: bool) -> MountedView:
    """Mount a single-file image via the kernel driver or SquashFUSE.

    The *permission* decision (may this user use the kernel driver at
    all?) belongs to :meth:`repro.kernel.syscalls.Kernel.mount`; this
    constructor only builds the view and its cost model.
    """
    if fuse:
        _check_fuse_alive(SquashFuseDriver)
    model = PROFILES["squashfuse" if fuse else "squashfs_kernel"]
    driver = SquashFuseDriver if fuse else SquashKernelDriver
    return MountedView(driver, [image.tree], model, writable=False, source_image=image)
