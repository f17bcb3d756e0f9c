"""Kubernetes API objects (the subset the scenarios exercise)."""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.world import world


@dataclasses.dataclass
class ObjectMeta:
    name: str
    namespace: str = "default"
    labels: dict[str, str] = dataclasses.field(default_factory=dict)
    uid: str = dataclasses.field(default_factory=lambda: f"uid-{next(world.k8s_uid)}")
    resource_version: int = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.namespace, self.name)


@dataclasses.dataclass(frozen=True)
class ResourceRequests:
    cpu: float = 1.0          # cores
    memory: int = 1 * 2**30   # bytes
    gpu: int = 0


@dataclasses.dataclass
class ContainerSpec:
    name: str
    image: str                            # "registry/repo:tag"
    command: tuple[str, ...] = ()
    resources: ResourceRequests = ResourceRequests()
    env: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class PodSpec:
    containers: list[ContainerSpec]
    node_selector: dict[str, str] = dataclasses.field(default_factory=dict)
    #: uid of the submitting user — HPC integrations map pods to WLM users
    user_uid: int = 1000
    #: seconds of (simulated) work; None = service pod, runs until deleted
    duration: float | None = 30.0

    def total_requests(self) -> ResourceRequests:
        containers = self.containers
        if len(containers) == 1:
            # the sums of one container are its own (immutable) requests
            return containers[0].resources
        return ResourceRequests(
            cpu=sum(c.resources.cpu for c in self.containers),
            memory=sum(c.resources.memory for c in self.containers),
            gpu=sum(c.resources.gpu for c in self.containers),
        )


class PodPhase(enum.Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


@dataclasses.dataclass
class Pod:
    metadata: ObjectMeta
    spec: PodSpec
    phase: PodPhase = PodPhase.PENDING
    node_name: str | None = None
    start_time: float | None = None
    end_time: float | None = None
    message: str = ""
    #: set by kubelets: engine run results per container
    container_results: list[object] = dataclasses.field(default_factory=list)

    @property
    def bound(self) -> bool:
        return self.node_name is not None

    def __repr__(self) -> str:
        return f"<Pod {self.metadata.namespace}/{self.metadata.name} {self.phase.value} on={self.node_name}>"


@dataclasses.dataclass
class NodeCondition:
    ready: bool = True
    last_heartbeat: float = 0.0


@dataclasses.dataclass
class K8sNode:
    metadata: ObjectMeta
    capacity: ResourceRequests = ResourceRequests(cpu=64, memory=256 * 2**30, gpu=0)
    condition: NodeCondition = dataclasses.field(default_factory=NodeCondition)
    #: resources currently claimed by bound pods (kept by the scheduler)
    allocated: ResourceRequests = ResourceRequests(cpu=0, memory=0, gpu=0)

    def allocatable(self) -> ResourceRequests:
        return ResourceRequests(
            cpu=self.capacity.cpu - self.allocated.cpu,
            memory=self.capacity.memory - self.allocated.memory,
            gpu=self.capacity.gpu - self.allocated.gpu,
        )

    def fits(self, req: ResourceRequests) -> bool:
        # allocatable(), compared field by field without building it
        cap = self.capacity
        used = self.allocated
        return (
            req.cpu <= cap.cpu - used.cpu
            and req.memory <= cap.memory - used.memory
            and req.gpu <= cap.gpu - used.gpu
        )

    def claim(self, req: ResourceRequests) -> None:
        self.allocated = ResourceRequests(
            cpu=self.allocated.cpu + req.cpu,
            memory=self.allocated.memory + req.memory,
            gpu=self.allocated.gpu + req.gpu,
        )

    def release(self, req: ResourceRequests) -> None:
        self.allocated = ResourceRequests(
            cpu=max(0.0, self.allocated.cpu - req.cpu),
            memory=max(0, self.allocated.memory - req.memory),
            gpu=max(0, self.allocated.gpu - req.gpu),
        )
