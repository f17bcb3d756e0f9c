"""Deterministic fault injection over the simulated stack.

The paper's §3.2 requirements and §4.1.2 security discussion assert how
HPC container stacks must behave when things go wrong — registries
throttle, shared filesystems degrade, nodes die, FUSE daemons vanish,
hooks fail.  This package makes those failure scenarios first-class and
*deterministic*: a seeded :class:`FaultPlan` schedules faults in virtual
time, the current run's :class:`FaultInjector` (``repro.run.run.faults``)
delivers them at named injection points wired through ``repro.registry``, ``repro.fs``, ``repro.engines``,
``repro.wlm``, and ``repro.k8s``, and explicit recovery policies
(:class:`RetryPolicy` backoff, Slurm requeue, kubelet failure
propagation, engine cleanup guarantees) absorb them.  Same seed, same
plan → byte-identical traces and outcomes.

See ``ARCHITECTURE.md`` for the layer map and ``EXPERIMENTS.md`` ("Failure
semantics") for the per-fault recovery contracts and repro commands.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import KIND_POINTS, FaultEvent, FaultKind, FaultPlan
from repro.faults.retry import RetryExhausted, RetryPolicy

#: exports resolved lazily: chaos/leaks import the scenario and runtime
#: layers, which themselves consult the injector — a module-level import
#: here would close that cycle during package initialization.
_LAZY = {
    "ChaosReport": "repro.faults.chaos",
    "run_chaos": "repro.faults.chaos",
    "run_slo": "repro.faults.chaos",
    "container_leaks": "repro.faults.leaks",
    "find_leaks": "repro.faults.leaks",
    "kubelet_leaks": "repro.faults.leaks",
    "mount_leaks": "repro.faults.leaks",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "KIND_POINTS",
    "RetryExhausted",
    "RetryPolicy",
    "container_leaks",
    "find_leaks",
    "kubelet_leaks",
    "mount_leaks",
    "run_chaos",
    "run_slo",
]
