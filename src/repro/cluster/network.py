"""Interconnect model: point-to-point transfer costs between nodes.

Used by the Kubernetes-in-WLM proof of concept (Figure 1: "building a
Kubernetes cluster across the high-speed network of a compute cluster
using Slingshot") and by multi-node image distribution estimates.
"""

from __future__ import annotations

from repro.cluster.hardware import NICSpec


class Interconnect:
    """A flat (single-switch-tier) high-speed network."""

    def __init__(self, nic: NICSpec | None = None, per_hop_latency: float = 0.4e-6, hops: int = 2):
        self.nic = nic or NICSpec()
        self.per_hop_latency = per_hop_latency
        self.hops = hops
        self.stats = {"messages": 0, "bytes": 0}
        #: (request, response) bytes -> round-trip seconds
        self._rpc_costs: dict[tuple[int, int], float] = {}

    def _seconds(self, nbytes: int) -> float:
        return self.nic.latency + self.hops * self.per_hop_latency + nbytes / self.nic.bandwidth

    def transfer_cost(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` point-to-point."""
        self.stats["messages"] += 1
        self.stats["bytes"] += nbytes
        return self._seconds(nbytes)

    def rpc_cost(self, request_bytes: int = 512, response_bytes: int = 4096) -> float:
        """A request/response round trip (e.g. kubelet → API server):
        two messages in ``stats``; the seconds are computed once per
        message-size pair (the link does not change)."""
        stats = self.stats
        stats["messages"] += 2
        stats["bytes"] += request_bytes + response_bytes
        key = (request_bytes, response_bytes)
        cost = self._rpc_costs.get(key)
        if cost is None:
            cost = self._rpc_costs[key] = (
                self._seconds(request_bytes) + self._seconds(response_bytes)
            )
        return cost

    def broadcast_cost(self, nbytes: int, n_nodes: int) -> float:
        """Binomial-tree broadcast of ``nbytes`` to ``n_nodes``."""
        if n_nodes <= 1:
            return 0.0
        rounds = (n_nodes - 1).bit_length()
        return rounds * self.transfer_cost(nbytes)
