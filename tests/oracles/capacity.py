"""O(nodes) best-fit placement: the reference for ``CapacityIndex``."""

from __future__ import annotations


class LinearCapacityScan:
    """Scan every node per request; same interface and policy as
    :class:`repro.cluster.CapacityIndex`."""

    __slots__ = ("free", "cap", "down")

    def __init__(self, n_nodes: int, node_cpus: int):
        self.cap = int(node_cpus)
        self.free = [self.cap] * int(n_nodes)
        self.down: set[int] = set()

    def alloc(self, req: int) -> int | None:
        """Tightest hole that fits, lowest node id on ties."""
        best = -1
        best_free = self.cap + 1
        for node, free in enumerate(self.free):
            if req <= free < best_free:
                best, best_free = node, free
                if free == req:
                    break  # exact fit: no tighter hole exists
        if best < 0:
            return None
        self.free[best] = best_free - req
        return best

    def release(self, node: int, req: int) -> None:
        self.free[node] += req

    def remove_node(self, node: int) -> int:
        if node in self.down:
            return 0
        self.down.add(node)
        freed = self.free[node]
        self.free[node] = 0
        return freed

    def restore_node(self, node: int) -> None:
        if node not in self.down:
            return
        self.down.discard(node)
        self.free[node] = self.cap

    @property
    def total_free(self) -> int:
        return sum(self.free)
