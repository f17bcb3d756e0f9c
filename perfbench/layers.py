"""Per-layer host-time attribution, measured from outside the library.

:class:`LayerTrace` swaps each layer's public entry points for
``perf_counter`` wrappers and restores the originals afterwards.  A call
stack turns nested spans into *self* time: a span's duration minus the
part its wrapped callees cover, so ``engines.run`` does not also count
the ``oci.runtime`` calls inside it.  Counts and times accumulate in
plain dicts in memory and are read once at the end.

Entry points are found by import path.  A module-level function is
rebound in every loaded module that imported it by name, and a method
is wrapped on its class and on every subclass that overrides it.
Generator entry points (the shared filesystem's ``proc_*`` processes)
are timed per resumed step, since their bodies run inside the
simulator's dispatch, one step at a time.

Shard-pool workers: the wrapper around ``repro.shard.runner._execute_cell``
notices when it runs in a forked worker, traces the cell into a fresh
accumulator, and ships it back on the pickled ``CellResult``.  The
``run_cells`` wrapper in the parent folds those worker traces in,
scaled by the parallel span over the summed worker busy time, so the
layer times still add up to the parent's wall clock; whatever of the
``run_cells`` wall the cells do not cover (pool start, pickling, merge)
is ``shard.merge`` self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

#: layer name -> entry points as "module:Class.attr" or "module:function"
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.run": ("repro.sim.environment:Environment.run",),
    "workload.trace": ("repro.workload.fleet:generate_shard_trace",),
    "oci.catalog": ("repro.workload.fleet:ImageCatalog.build",),
    "registry.push": ("repro.registry.distribution:OCIDistributionRegistry.push_image",),
    "registry.pull": ("repro.registry.distribution:OCIDistributionRegistry.pull_image",),
    "cluster.capacity": (
        "repro.cluster.capacity:CapacityIndex.alloc",
        "repro.cluster.capacity:CapacityIndex.release",
        "repro.cluster.capacity:CapacityIndex.remove_node",
        "repro.cluster.capacity:CapacityIndex.restore_node",
    ),
    "obs.timeseries": (
        "repro.obs.timeseries:TimeSeriesRecorder.sample",
        "repro.obs.timeseries:TimeSeriesRecorder.record",
    ),
    "obs.slo": ("repro.obs.slo:evaluate",),
    "k8s.apiserver": (
        "repro.k8s.apiserver:APIServer.create",
        "repro.k8s.apiserver:APIServer.update",
        "repro.k8s.apiserver:APIServer.delete",
    ),
    "engines.pull": ("repro.engines.base:ContainerEngine.pull",),
    "engines.run": ("repro.engines.base:ContainerEngine.run",),
    "oci.runtime": (
        "repro.oci.runtime:OCIRuntime.create",
        "repro.oci.runtime:OCIRuntime.start",
    ),
    "wlm.backfill": ("repro.wlm.scheduler:BackfillScheduler.schedule",),
    "fs.shared": (
        "repro.fs.backends:SharedFS.proc_open",
        "repro.fs.backends:SharedFS.proc_read_file",
        "repro.fs.backends:SharedFS.proc_load_tree",
    ),
    "fs.view": ("repro.fs.drivers:MountedView.load_all",),
    "shard.snapshot": (
        "repro.shard.state:WarmSnapshot.build",
        "repro.shard.state:WarmSnapshot.fork",
    ),
    "shard.cells": ("repro.shard.runner:_execute_cell",),
    "shard.merge": ("repro.shard.runner:run_cells",),
}

#: attribute set on every wrapper, so a leftover one can be found
MARKER = "__perfbench_layer__"


def _all_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def resolve(spec: str) -> list[tuple[object, str]]:
    """Every (owner, attribute) pair to patch for one entry point."""
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        original = getattr(module, path)
        return [
            (mod, name)
            for mod in list(sys.modules.values())
            if mod is not None
            for name, value in list(getattr(mod, "__dict__", {}).items())
            if value is original
        ]
    class_name, _, attr = path.partition(".")
    base = getattr(module, class_name)
    return [(cls, attr) for cls in _all_subclasses(base) if attr in cls.__dict__]


class LayerTrace:
    """In-memory per-layer call counts, self time, errors and inclusive
    time, plus the wrappers that feed them."""

    def __init__(self) -> None:
        #: the tracing process; a cell running under any other pid is in
        #: a forked pool worker
        self.pid = os.getpid()
        self.reset()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.errors: dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: wall time inside outermost calls of each layer (nested spans
        #: of other layers included)
        self.inclusive_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: open spans, innermost last: [layer, child seconds]
        self.stack: list[list] = []

    # -- install / restore ----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer trace already installed")
        for layer, specs in LAYERS.items():
            for spec in specs:
                for owner, name in resolve(spec):
                    raw = owner.__dict__[name]
                    self._saved.append((owner, name, raw))
                    setattr(owner, name, self._wrap_raw(layer, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def originals(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    def _wrap_raw(self, layer: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(layer, raw.__func__))
        return self._wrap(layer, raw)

    def _wrap(self, layer: str, fn):
        if layer == "shard.cells":
            wrapper = self._wrap_cell(fn)
        elif layer == "shard.merge":
            wrapper = self._wrap_run_cells(fn)
        elif inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(layer, fn)
        else:
            wrapper = self._wrap_call(layer, fn)
        setattr(wrapper, MARKER, layer)
        return wrapper

    # -- span bookkeeping -----------------------------------------------------
    def _close(self, layer: str, frame: list, parent, dt: float) -> None:
        self.self_s[layer] += dt - frame[1]
        if parent is None:
            self.inclusive_s[layer] += dt
        else:
            parent[1] += dt
            if parent[0] != layer:
                self.inclusive_s[layer] += dt

    def _wrap_call(self, layer: str, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = trace.stack
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                trace.calls[layer] += 1  # a same-layer nest is one call
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                trace.errors[layer] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                trace._close(layer, frame, parent, dt)

        return wrapper

    def _wrap_generator(self, layer: str, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace.calls[layer] += 1
            inner = fn(*args, **kwargs)
            outer = trace._timed_steps(layer, inner)
            outer.__name__ = inner.__name__
            outer.__qualname__ = inner.__qualname__
            return outer

        return wrapper

    def _timed_steps(self, layer: str, inner):
        """Forward every send/throw to ``inner``, timing each step."""
        stack = self.stack
        value, exc = None, None
        while True:
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                target = inner.send(value) if exc is None else inner.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self._close(layer, frame, parent, dt)
            try:
                value, exc = (yield target), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as err:  # delivered into the inner process
                value, exc = None, err

    # -- shard pool ------------------------------------------------------------
    def _wrap_cell(self, fn):
        """``_execute_cell``: in-process a plain span; in a pool worker a
        fresh per-cell trace that rides back on the result."""
        trace = self
        plain = self._wrap_call("shard.cells", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == trace.pid:
                return plain(*args, **kwargs)
            trace.reset()
            t0 = time.perf_counter()
            result = plain(*args, **kwargs)
            result.perfbench_trace = {
                "pid": os.getpid(),
                "wall": time.perf_counter() - t0,
                "calls": trace.calls,
                "self_s": trace.self_s,
                "errors": trace.errors,
                "inclusive_s": trace.inclusive_s,
            }
            return result

        return wrapper

    def _wrap_run_cells(self, fn):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = trace.stack
            parent = stack[-1] if stack else None
            trace.calls["shard.merge"] += 1
            frame = ["shard.merge", 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                frame[1] += trace._absorb_workers(result.results)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                trace._close("shard.merge", frame, parent, dt)

        return wrapper

    def _absorb_workers(self, cell_results) -> float:
        """Fold pool-worker cell traces in; returns the parallel span
        (the busiest worker's total cell time) they account for."""
        shipped = [
            r.__dict__.pop("perfbench_trace")
            for r in cell_results if "perfbench_trace" in r.__dict__
        ]
        if not shipped:
            return 0.0
        busy: dict[int, float] = {}
        for t in shipped:
            busy[t["pid"]] = busy.get(t["pid"], 0.0) + t["wall"]
        span = max(busy.values())
        scale = span / sum(busy.values())
        for t in shipped:
            for layer in LAYERS:
                self.calls[layer] += t["calls"][layer]
                self.errors[layer] += t["errors"][layer]
                self.self_s[layer] += t["self_s"][layer] * scale
                self.inclusive_s[layer] += t["inclusive_s"][layer] * scale
        return span


def leftover_wrappers() -> list[str]:
    """Names of wrapped entry points still installed anywhere (empty
    after a clean :meth:`LayerTrace.uninstall`)."""
    found = []
    for layer, specs in LAYERS.items():
        for spec in specs:
            for owner, name in resolve(spec):
                raw = owner.__dict__[name]
                fn = getattr(raw, "__func__", raw)
                if hasattr(fn, MARKER):
                    found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found
