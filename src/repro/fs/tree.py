"""Path-addressed file tree over the inode types.

Trees are copy-on-write: :meth:`FileTree.clone` freezes the current
root (marking every node ``shared``) and returns a new tree aliasing
it, and every mutating method copies up only the spine of shared nodes
from the root to the touched entry.  See :mod:`repro.fs.inode` for the
sharing invariant.

Because a frozen subtree can never change, trees also memoize their
scan aggregates (the file listing under a path, total sizes, and the
per-batch IO costs the storage backends derive from them).  For a
shared subtree the memo lives on the node itself — so every view of the
same image shares one scan — and for a private subtree it lives on the
tree, keyed by a generation counter that every mutation bumps.
"""

from __future__ import annotations

import posixpath
import typing as _t

from repro.fs.inode import (
    AnyNode,
    DirNode,
    FileNode,
    FsError,
    Node,
    SymlinkNode,
    WhiteoutNode,
)
from repro.run import run

__all__ = [
    "FsError",
    "FileTree",
    "normalize",
    "split_parts",
]


def normalize(path: str) -> str:
    """Normalize to an absolute, '/'-rooted path."""
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    return norm


def split_parts(path: str) -> list[str]:
    norm = normalize(path)
    return [p for p in norm.split("/") if p]


def _count_copy_up() -> None:
    counters = run.counters
    if counters.enabled:
        counters.cow_copy_ups += 1


class FileTree:
    """A mutable, path-addressed tree of inodes."""

    def __init__(self, root: DirNode | None = None):
        self.root = root or DirNode()
        #: bumped by every mutating method; keys the private scan cache.
        self._gen = 0
        self._scan_cache: dict = {}
        self._scan_gen = -1

    # -- lookup -------------------------------------------------------------
    def get(self, path: str, follow_symlinks: bool = True) -> Node:
        node = self._resolve(path, follow_symlinks=follow_symlinks)
        if node is None:
            raise FsError(f"no such path: {path}")
        return node

    def lookup(self, path: str, follow_symlinks: bool = True) -> Node | None:
        return self._resolve(path, follow_symlinks=follow_symlinks)

    def exists(self, path: str) -> bool:
        return self._resolve(path) is not None

    def is_dir(self, path: str) -> bool:
        node = self._resolve(path)
        return isinstance(node, DirNode)

    def is_file(self, path: str) -> bool:
        node = self._resolve(path)
        return isinstance(node, FileNode)

    def _resolve(
        self, path: str, follow_symlinks: bool = True, _depth: int = 0
    ) -> Node | None:
        if _depth > 40:
            raise FsError(f"too many levels of symbolic links: {path}")
        node: Node = self.root
        parts = split_parts(path)
        for i, part in enumerate(parts):
            if isinstance(node, SymlinkNode):
                resolved = self._resolve(node.target, _depth=_depth + 1)
                if resolved is None:
                    return None
                node = resolved
            if not isinstance(node, DirNode):
                return None
            child = node.children.get(part)
            if child is None:
                return None
            node = child
        if follow_symlinks and isinstance(node, SymlinkNode):
            return self._resolve(node.target, _depth=_depth + 1)
        return node

    def _canonical_parts(self, path: str, _depth: int = 0) -> list[str] | None:
        """Symlink-free path of an existing entry, as root-relative parts.

        Follows symlinks exactly like :meth:`_resolve` (including the
        final component), but returns *where the target actually lives*
        so a copy-up can walk the literal spine.  Returns None when the
        path does not resolve.
        """
        if _depth > 40:
            raise FsError(f"too many levels of symbolic links: {path}")
        canon: list[str] = []
        node: Node = self.root
        for part in split_parts(path):
            if isinstance(node, SymlinkNode):
                resolved = self._canonical_parts(node.target, _depth=_depth + 1)
                if resolved is None:
                    return None
                canon = resolved
                found = self._node_at(canon)
                if found is None:
                    return None
                node = found
            if not isinstance(node, DirNode):
                return None
            child = node.children.get(part)
            if child is None:
                return None
            canon.append(part)
            node = child
        if isinstance(node, SymlinkNode):
            return self._canonical_parts(node.target, _depth=_depth + 1)
        return canon

    def _node_at(self, parts: _t.Sequence[str]) -> Node | None:
        """Literal (no-symlink) descent along already-canonical parts."""
        node: Node = self.root
        for part in parts:
            if not isinstance(node, DirNode):
                return None
            child = node.children.get(part)
            if child is None:
                return None
            node = child
        return node

    # -- copy-up helpers ------------------------------------------------------
    def _mutable_root(self) -> DirNode:
        if self.root.shared:
            self.root = self.root.copy_shallow()
            _count_copy_up()
        return self.root

    def _unshare_child(self, parent: DirNode, name: str) -> Node:
        child = parent.children[name]
        if child.shared:
            child = child.copy_shallow()
            parent.children[name] = child
            _count_copy_up()
        return child

    def _mutable_node(self, path: str) -> Node:
        """Copy up the spine to ``path`` and return its unshared node."""
        canon = self._canonical_parts(path)
        if canon is None:
            raise FsError(f"no such path: {path}")
        node: Node = self._mutable_root()
        for part in canon:
            node = self._unshare_child(node, part)  # type: ignore[arg-type]
        return node

    def _bump(self) -> None:
        self._gen += 1

    # -- mutation -----------------------------------------------------------
    def mkdir(self, path: str, parents: bool = False, uid: int = 0, gid: int = 0) -> DirNode:
        parts = split_parts(path)
        node: DirNode = self._mutable_root()
        if not parts:
            return node
        for i, part in enumerate(parts):
            child = node.children.get(part)
            last = i == len(parts) - 1
            if child is None:
                if not last and not parents:
                    raise FsError(f"missing parent for {path}")
                child = DirNode(uid=uid, gid=gid)
                node.children[part] = child
            elif child.shared:
                child = self._unshare_child(node, part)
            if not isinstance(child, DirNode):
                raise FsError(f"not a directory: /{'/'.join(parts[: i + 1])}")
            node = child
        self._bump()
        return node

    def create_file(
        self,
        path: str,
        data: bytes | None = None,
        size: int | None = None,
        uid: int = 0,
        gid: int = 0,
        mode: int = 0o644,
        parents: bool = True,
    ) -> FileNode:
        parts = split_parts(path)
        if not parts:
            raise FsError("cannot create file at /")
        parent = self.mkdir("/".join(parts[:-1]), parents=parents, uid=uid, gid=gid)
        node = FileNode(data=data, size=size, uid=uid, gid=gid, mode=mode)
        parent.children[parts[-1]] = node
        self._bump()
        return node

    def symlink(self, path: str, target: str, uid: int = 0, gid: int = 0) -> SymlinkNode:
        parts = split_parts(path)
        parent = self.mkdir("/".join(parts[:-1]), parents=True, uid=uid, gid=gid)
        node = SymlinkNode(target, uid=uid, gid=gid)
        parent.children[parts[-1]] = node
        self._bump()
        return node

    def whiteout(self, path: str) -> WhiteoutNode:
        parts = split_parts(path)
        parent = self.mkdir("/".join(parts[:-1]), parents=True)
        node = WhiteoutNode()
        parent.children[parts[-1]] = node
        self._bump()
        return node

    def remove(self, path: str) -> None:
        parts = split_parts(path)
        if not parts:
            raise FsError("cannot remove /")
        canon = self._canonical_parts("/".join(parts[:-1]))
        if canon is None:
            raise FsError(f"no such path: {path}")
        node: Node = self._mutable_root()
        for part in canon:
            node = self._unshare_child(node, part)  # type: ignore[arg-type]
        if not isinstance(node, DirNode) or parts[-1] not in node.children:
            raise FsError(f"no such path: {path}")
        del node.children[parts[-1]]
        self._bump()

    def attach(self, path: str, node: Node) -> None:
        """Graft an existing node (subtree) at ``path``.

        The node is aliased, never copied: mutations made through *this*
        tree copy up as usual, but in-place mutation of an unshared
        attached node (by whoever still holds it) stays visible here —
        the historical graft semantics.
        """
        parts = split_parts(path)
        if not parts:
            if not isinstance(node, DirNode):
                raise FsError("root must be a directory")
            self.root = node
            self._bump()
            return
        parent = self.mkdir("/".join(parts[:-1]), parents=True)
        parent.children[parts[-1]] = node
        self._bump()

    def chmod(self, path: str, mode: int) -> Node:
        """Change the mode of the entry at ``path`` (copy-up aware)."""
        node = self._mutable_node(path)
        node.chmod(mode)
        self._bump()
        return node

    def chown(self, path: str, uid: int, gid: int) -> Node:
        """Change ownership of the entry at ``path`` (copy-up aware)."""
        node = self._mutable_node(path)
        node.chown(uid, gid)
        self._bump()
        return node

    def write(self, path: str, data: bytes) -> FileNode:
        """Replace the content of the file at ``path`` (copy-up aware)."""
        node = self._mutable_node(path)
        if not isinstance(node, FileNode):
            raise FsError(f"not a file: {path}")
        node.write(data)
        self._bump()
        return node

    # -- iteration & aggregate stats -----------------------------------------
    def walk(self, top: str = "/") -> _t.Iterator[tuple[str, Node]]:
        """Yield (path, node) for every node below ``top`` (depth-first)."""
        start = self._resolve(top, follow_symlinks=False)
        if start is None:
            raise FsError(f"no such path: {top}")
        base = normalize(top)

        def _walk(prefix: str, node: Node) -> _t.Iterator[tuple[str, Node]]:
            yield prefix, node
            if isinstance(node, DirNode):
                for name in sorted(node.children):
                    child_prefix = prefix.rstrip("/") + "/" + name
                    yield from _walk(child_prefix, node.children[name])

        yield from _walk(base, start)

    def scan_cache(self, top: str = "/") -> dict:
        """Memo dict for scan-derived aggregates below ``top``.

        Entries must be pure functions of the subtree content and the
        ``top`` string (file listings, size sums, per-batch IO costs...).
        For a shared (frozen, hence immutable) start node the dict lives
        on the node and is reused by every tree aliasing it; otherwise
        it lives on this tree and is dropped whenever a mutation bumps
        the generation counter.
        """
        start = self._resolve(top, follow_symlinks=False)
        if start is None:
            raise FsError(f"no such path: {top}")
        if start.shared:
            cache = start.__dict__.get("_scan_cache")
            if cache is None:
                cache = {}
                start.__dict__["_scan_cache"] = cache
            return cache
        if self._scan_gen != self._gen:
            self._scan_cache = {}
            self._scan_gen = self._gen
        return self._scan_cache

    def files_list(self, top: str = "/") -> list[tuple[str, FileNode]]:
        """Memoized list of (path, FileNode) below ``top`` (walk order)."""
        cache = self.scan_cache(top)
        key = ("files", top)
        files = cache.get(key)
        if files is None:
            files = [(p, n) for p, n in self.walk(top) if isinstance(n, FileNode)]
            cache[key] = files
        return files

    def files(self, top: str = "/") -> _t.Iterator[tuple[str, FileNode]]:
        return iter(self.files_list(top))

    def num_files(self, top: str = "/") -> int:
        return len(self.files_list(top))

    def total_size(self, top: str = "/") -> int:
        cache = self.scan_cache(top)
        key = ("total_size", top)
        total = cache.get(key)
        if total is None:
            total = sum(node.size for _, node in self.files_list(top))
            cache[key] = total
        return total

    def clone(self) -> "FileTree":
        """O(1) copy-on-write clone: freeze the root and alias it.

        The first clone of a tree pays one marking walk; after that both
        trees mutate independently by copying up only the touched spine.
        """
        self.root._freeze()
        counters = run.counters
        if counters.enabled:
            counters.cow_clones += 1
        return FileTree(root=self.root)

    def deep_clone(self) -> "FileTree":
        """A genuinely independent copy: fresh nodes, fresh inode numbers.

        This is the pre-CoW ``clone()`` semantics, kept for callers (and
        property tests) that need node *identity* to diverge, not just
        tree state.
        """

        def _copy(node: Node) -> Node:
            dup = node.copy_shallow()
            if isinstance(node, DirNode):
                dup.children = {  # type: ignore[attr-defined]
                    name: _copy(child) for name, child in node.children.items()
                }
            return dup

        return FileTree(root=_copy(self.root))  # type: ignore[arg-type]

    def merge_from(self, other: "FileTree", at: str = "/") -> None:
        """Deep-merge another tree's contents under ``at`` (upper wins).

        Source subtrees are frozen and *shared*, not copied: applying a
        layer is O(entries in the layer), and the source tree can never
        be corrupted through the merged-into tree (mutations there copy
        up before touching shared nodes).
        """
        target_root = self.mkdir(at, parents=True)

        def _merge(dst: DirNode, src: DirNode) -> None:
            for name, child in src.children.items():
                if isinstance(child, WhiteoutNode):
                    dst.children.pop(name, None)
                    continue
                existing = dst.children.get(name)
                if isinstance(child, DirNode) and isinstance(existing, DirNode):
                    if existing.shared:
                        existing = self._unshare_child(dst, name)  # type: ignore[assignment]
                    _merge(existing, child)  # type: ignore[arg-type]
                else:
                    child._freeze()
                    dst.children[name] = child
        _merge(target_root, other.root)
        self._bump()

    def __repr__(self) -> str:
        return f"<FileTree files={self.num_files()} bytes={self.total_size()}>"
