"""Control-plane bundles: full Kubernetes and the pared-down K3s.

K3s is "a fully conformant, pared down version packaged in a single
binary" (§6) — same API, much faster cold start, which is what makes the
Kubernetes-in-WLM scenarios (§6.3, §6.5) viable at all.
"""

from __future__ import annotations

from repro.cluster.network import Interconnect
from repro.k8s.apiserver import APIServer
from repro.k8s.scheduler import K8sScheduler
from repro.sim import Environment


class _ControlPlane:
    """API server + scheduler with a cold-start cost."""

    name = "kubernetes"
    #: etcd quorum + apiserver + controller-manager + scheduler cold start
    startup_cost = 45.0
    #: resident control-plane memory (one reason not to run it per job)
    resident_memory = 2 * 2**30

    def __init__(self, env: Environment, network: Interconnect | None = None):
        self.env = env
        self.network = network
        self.api = APIServer()
        self.scheduler: K8sScheduler | None = None
        self.ready = env.event()
        self._proc = env.process(self._start(), name=f"{self.name}-server")

    def _start(self):
        yield self.env.timeout(self.startup_cost)
        self.scheduler = K8sScheduler(self.env, self.api)
        self.ready.succeed(self.env.now)

    @property
    def is_ready(self) -> bool:
        return self.ready.triggered


class FullK8sServer(_ControlPlane):
    name = "kubernetes"
    startup_cost = 45.0
    resident_memory = 2 * 2**30


class K3sServer(_ControlPlane):
    """Single-binary lightweight distribution (sqlite instead of etcd)."""

    name = "k3s"
    startup_cost = 8.0
    resident_memory = 512 * 2**20
