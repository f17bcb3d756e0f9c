"""Inode types for the in-memory filesystem.

Files may carry literal ``data`` (small config files the simulation
inspects) or only a ``size`` (bulk content such as libraries, where only
the byte count matters for IO costs).  Every node carries POSIX ownership
and a mode so the kernel model can enforce permission rules.

Copy-on-write sharing
---------------------
Cloning a tree no longer deep-copies it.  Instead nodes carry a
``shared`` flag: :meth:`FileTree.clone` freezes the subtree (marks every
node shared, an O(n) walk the *first* time, O(1) once already frozen)
and the clone aliases the same nodes.  A shared node is immutable — the
in-place mutators (:meth:`Node.chown`, :meth:`Node.chmod`,
:meth:`FileNode.write`) raise :class:`FsError` on it — and any mutation
through :class:`~repro.fs.tree.FileTree` first *copies up* the spine
from the root to the touched node via :meth:`Node.copy_shallow`.

Invariant: a shared directory only has shared children (``_freeze`` is
recursive), so freezing can stop at the first already-shared node.  The
converse does not hold: an unshared directory may hold shared children
(that is exactly what a copy-up produces).
"""

from __future__ import annotations

import hashlib
import typing as _t

from repro.run import run
from repro.world import world


class FsError(OSError):
    """Filesystem-level error (missing path, wrong node type, ...)."""


class Node:
    """Common base for all inode types."""

    kind: str = "node"

    def __init__(self, uid: int = 0, gid: int = 0, mode: int = 0o644):
        self.ino = next(world.inode)
        self.uid = uid
        self.gid = gid
        self.mode = mode
        self.mtime = 0.0
        #: set-uid bit shortcut (mode & 0o4000); modelled explicitly because
        #: setuid helpers are central to the engine comparison.
        self.xattrs: dict[str, str] = {}
        #: copy-on-write flag: once True the node is aliased by several
        #: trees and must never be mutated in place again.
        self.shared = False

    @property
    def setuid(self) -> bool:
        return bool(self.mode & 0o4000)

    def _assert_mutable(self) -> None:
        if self.shared:
            raise FsError(
                f"cannot mutate a CoW-shared {self.kind} node in place; "
                "mutate through FileTree (chmod/chown/write) so the spine "
                "is copied up first"
            )

    def chown(self, uid: int, gid: int) -> None:
        self._assert_mutable()
        self.uid = uid
        self.gid = gid

    def chmod(self, mode: int) -> None:
        self._assert_mutable()
        self.mode = mode

    def _freeze(self) -> None:
        self.shared = True

    def _copy_base(self, node: "Node") -> "Node":
        """Carry the POSIX attributes over to a fresh (unshared) copy."""
        node.uid = self.uid
        node.gid = self.gid
        node.mode = self.mode
        node.mtime = self.mtime
        node.xattrs = dict(self.xattrs)
        return node


class FileNode(Node):
    """A regular file: literal bytes, or size-only bulk content."""

    kind = "file"

    def __init__(
        self,
        data: bytes | None = None,
        size: int | None = None,
        uid: int = 0,
        gid: int = 0,
        mode: int = 0o644,
    ):
        super().__init__(uid=uid, gid=gid, mode=mode)
        if data is not None and size is not None and size != len(data):
            raise ValueError("size conflicts with len(data)")
        self.data = data
        self._size = len(data) if data is not None else int(size or 0)
        self._digest_memo: str | None = None

    @property
    def size(self) -> int:
        return self._size

    def write(self, data: bytes) -> None:
        self._assert_mutable()
        self.data = data
        self._size = len(data)
        self._digest_memo = None

    def chown(self, uid: int, gid: int) -> None:
        super().chown(uid, gid)
        self._digest_memo = None

    def chmod(self, mode: int) -> None:
        super().chmod(mode)
        self._digest_memo = None

    def digest(self) -> str:
        """Content digest; size-only files hash their identity + size.

        Memoized: content only changes through :meth:`write` (and the
        identity of a size-only file never changes), both of which drop
        the memo.  ``chmod``/``chown`` also invalidate, although they do
        not feed the hash, so the memo never outlives *any* in-place
        mutation of the node.
        """
        if self._digest_memo is not None:
            counters = run.counters
            if counters.enabled:
                counters.digest_cache_hits += 1
            return self._digest_memo
        h = hashlib.sha256()
        if self.data is not None:
            h.update(self.data)
        else:
            h.update(f"bulk:{self.ino}:{self._size}".encode())
        self._digest_memo = h.hexdigest()
        return self._digest_memo

    def clone(self) -> "FileNode":
        self._freeze()
        return self

    def copy_shallow(self) -> "FileNode":
        node = FileNode(data=self.data, size=None if self.data is not None else self._size)
        self._copy_base(node)
        if self.data is not None:
            # Content digests are a pure function of the bytes, so the
            # memo survives the copy; bulk digests hash the inode number
            # and must be recomputed for the fresh node.
            node._digest_memo = self._digest_memo
        return node

    def __repr__(self) -> str:
        return f"<FileNode size={self._size} uid={self.uid} mode={oct(self.mode)}>"


class DirNode(Node):
    """A directory: named children."""

    kind = "dir"

    def __init__(self, uid: int = 0, gid: int = 0, mode: int = 0o755):
        super().__init__(uid=uid, gid=gid, mode=mode)
        self.children: dict[str, Node] = {}

    def _freeze(self) -> None:
        if self.shared:
            return
        self.shared = True
        for child in self.children.values():
            child._freeze()

    def clone(self) -> "DirNode":
        self._freeze()
        return self

    def copy_shallow(self) -> "DirNode":
        node = DirNode()
        self._copy_base(node)
        node.children = dict(self.children)
        return node

    def __repr__(self) -> str:
        return f"<DirNode {len(self.children)} entries>"


class SymlinkNode(Node):
    """A symbolic link to ``target`` (absolute or relative path)."""

    kind = "symlink"

    def __init__(self, target: str, uid: int = 0, gid: int = 0):
        super().__init__(uid=uid, gid=gid, mode=0o777)
        self.target = target

    def clone(self) -> "SymlinkNode":
        self._freeze()
        return self

    def copy_shallow(self) -> "SymlinkNode":
        node = SymlinkNode(self.target)
        self._copy_base(node)
        return node

    def __repr__(self) -> str:
        return f"<SymlinkNode -> {self.target}>"


#: whiteout marker used by overlay layers to hide lower entries (the OCI
#: layer format encodes these as ``.wh.<name>`` files).
class WhiteoutNode(Node):
    kind = "whiteout"

    def clone(self) -> "WhiteoutNode":
        self._freeze()
        return self

    def copy_shallow(self) -> "WhiteoutNode":
        node = WhiteoutNode()
        self._copy_base(node)
        return node

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<WhiteoutNode>"


AnyNode = _t.Union[FileNode, DirNode, SymlinkNode, WhiteoutNode]
