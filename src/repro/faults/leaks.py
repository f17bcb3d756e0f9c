"""Leak detection: the executable form of §3.2's "no lingering processes".

After a chaos run reaches quiescence, every container ever created must
be in a terminal state (``STOPPED``/``DELETED``), no kubelet may still
hold an active-pod record for a pod that is terminal, and no mount may
remain attached to a non-terminal container.  A finished pod must also
give back what its start took (:func:`retained_state_leaks`): no
terminal container still recorded by its runtime, no exited process
left unreaped, no emptied pod cgroup left behind.  :func:`find_leaks`
walks a scenario (or any bag of engines/kubelets) and returns
human-readable descriptions of every violation — an empty list is the
pass criterion chaos reports and the hypothesis property test assert on.
"""

from __future__ import annotations

import typing as _t

from repro.oci.runtime import ContainerState

#: container states that are acceptable once a run has wound down
TERMINAL_CONTAINER_STATES = frozenset(
    {ContainerState.STOPPED, ContainerState.DELETED}
)


def container_leaks(engines: _t.Iterable[object]) -> list[str]:
    """Containers stuck in a non-terminal state across ``engines``."""
    leaks: list[str] = []
    for engine in engines:
        runtime = getattr(engine, "runtime", engine)
        containers = getattr(runtime, "containers", {})
        for cid, container in sorted(containers.items()):
            if container.state not in TERMINAL_CONTAINER_STATES:
                name = getattr(getattr(engine, "info", None), "name", type(engine).__name__)
                leaks.append(
                    f"container {cid} on {name} still {container.state.value}"
                )
    return leaks


def mount_leaks(engines: _t.Iterable[object]) -> list[str]:
    """Mounts still attached to non-terminal containers."""
    leaks: list[str] = []
    for engine in engines:
        runtime = getattr(engine, "runtime", engine)
        containers = getattr(runtime, "containers", {})
        for cid, container in sorted(containers.items()):
            if container.state in TERMINAL_CONTAINER_STATES:
                continue
            n_mounts = 1 + len(container.mounts)  # rootfs + binds
            leaks.append(f"{n_mounts} mount(s) held by live container {cid}")
    return leaks


def kubelet_leaks(kubelets: _t.Iterable[object]) -> list[str]:
    """Active-pod records kubelets kept for pods that already ended."""
    from repro.k8s.objects import PodPhase

    leaks: list[str] = []
    for kubelet in kubelets:
        active = getattr(kubelet, "_active_pods", {})
        for uid, pod in sorted(active.items()):
            if pod.phase in (PodPhase.SUCCEEDED, PodPhase.FAILED):
                leaks.append(
                    f"kubelet {kubelet.node_name} still tracks finished pod "
                    f"{pod.metadata.name}"
                )
    return leaks


def retained_state_leaks(
    engines: _t.Iterable[object], kubelets: _t.Iterable[object]
) -> list[str]:
    """State that containers and pods which ended should have given
    back: runtime records of terminal containers, exited processes not
    reaped on the engines' kernels, and emptied pod cgroups under the
    kubelets' delegated subtrees."""
    from repro.kernel.process import ProcessState

    leaks: list[str] = []
    kernels: dict[int, object] = {}
    for engine in engines:
        runtime = getattr(engine, "runtime", engine)
        kernel = getattr(runtime, "kernel", None)
        if kernel is not None:
            kernels.setdefault(id(kernel), kernel)
        name = getattr(getattr(engine, "info", None), "name", type(engine).__name__)
        for cid, container in sorted(getattr(runtime, "containers", {}).items()):
            if container.state in TERMINAL_CONTAINER_STATES:
                leaks.append(f"terminal container {cid} on {name} still recorded")
    for kernel in kernels.values():
        for pid, proc in sorted(kernel.processes.items()):
            if proc.state is not ProcessState.RUNNING:
                leaks.append(
                    f"exited pid {pid} ({proc.argv[0]}) on {kernel.hostname} not reaped"
                )
    seen: set[tuple[int, str]] = set()
    for kubelet in kubelets:
        root = kubelet.cgroup_path
        cgroups = kubelet.cri.engine.kernel.cgroups
        if root is None or (id(cgroups), root) in seen:
            continue
        seen.add((id(cgroups), root))
        parent = cgroups.cgroup_at(root)
        for name, cg in sorted(parent.children.items() if parent else ()):
            if name.startswith("pod-") and not cg.procs and not cg.children:
                leaks.append(f"empty pod cgroup {root}/{name} not removed")
    return leaks


def _values(bag) -> list:
    """A mapping's values in key order, or the sequence itself."""
    if isinstance(bag, dict):
        return [bag[k] for k in sorted(bag)]
    return list(bag)


def find_leaks(scenario: object) -> list[str]:
    """All leak classes for one scenario object (or anything exposing
    ``engines`` — a mapping or sequence — and optionally ``kubelets``).

    Objects that model resources the engine/kubelet walk cannot see
    (e.g. :class:`~repro.workload.fleet.FleetShardEngine`'s pooled
    slots and capacity ledger) instead expose their own audit via a
    ``leak_descriptions()`` method, which takes precedence.
    """
    leak_fn = getattr(scenario, "leak_descriptions", None)
    if callable(leak_fn):
        return list(leak_fn())
    engines = _values(getattr(scenario, "engines", ()))
    kubelets = [
        *_values(getattr(scenario, "kubelets", ())),
        # agents retired by a requeue must be just as clean
        *_values(getattr(scenario, "retired_kubelets", ())),
    ]
    return [
        *container_leaks(engines),
        *mount_leaks(engines),
        *kubelet_leaks(kubelets),
        *retained_state_leaks(engines, kubelets),
    ]
