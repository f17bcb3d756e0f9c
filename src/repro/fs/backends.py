"""Storage backends: node-local disk, tmpfs, shared cluster filesystem.

A backend owns a :class:`~repro.fs.tree.FileTree` and a cost model.  Two
access styles are provided:

- ``est_*`` methods return a plain cost in seconds — used for quick,
  contention-free estimates;
- ``proc_*`` methods are simulation processes (generators) — used inside
  a :class:`~repro.sim.Environment` where contention matters.  For the
  shared filesystem every metadata operation acquires a slot on the
  metadata server (MDS), so a small-file open storm from many compute
  nodes queues exactly as §3.2 of the paper describes.
"""

from __future__ import annotations

import typing as _t

from repro.fs.inode import DirNode, FileNode
from repro.fs.perf import IOCostModel, PROFILES
from repro.fs.tree import FileTree, FsError
from repro.faults.plan import FaultKind as _FaultKind
from repro.run import run
from repro.sim import Environment, Resource


class StorageBackend:
    """A file tree with an IO cost model."""

    #: how many files proc_load_tree folds into one simulated IO burst;
    #: per-file costs are summed analytically, so virtual time is the
    #: same as per-file simulation while the event count drops ~100x.
    io_batch: int = 64

    def __init__(self, name: str, cost_model: IOCostModel, env: Environment | None = None):
        self.name = name
        self.cost_model = cost_model
        self.env = env
        self.tree = FileTree()
        #: running totals used by benchmarks
        self.stats = {"opens": 0, "bytes_read": 0}

    # -- estimate-style API ---------------------------------------------------
    def est_open(self, path: str) -> float:
        self.tree.get(path)
        self.stats["opens"] += 1
        # Path resolution pays one metadata op per component.
        depth = max(1, len([p for p in path.split("/") if p]))
        return self.cost_model.metadata_cost(depth)

    def est_read_file(self, path: str, random: bool = False) -> float:
        node = self.tree.get(path)
        if not isinstance(node, FileNode):
            raise FsError(f"not a file: {path}")
        self.stats["bytes_read"] += node.size
        if random:
            n_ops = max(1, node.size // 4096)
            return self.cost_model.random_read_cost(n_ops)
        return self.cost_model.sequential_read_cost(node.size)

    def est_load_tree(self, top: str = "/") -> float:
        """Cost of opening+reading every file under ``top`` (e.g. an
        interpreter importing its standard library at startup).

        The per-file cost sum is memoized in the tree's scan cache (it
        is a pure function of the subtree and the cost model), so many
        nodes loading the same image pay the walk once; the running
        ``stats`` totals are replayed identically from cached counts.
        """
        cache = self.tree.scan_cache(top)
        key = ("est_load", top, self.cost_model)
        entry = cache.get(key)
        if entry is None:
            model = self.cost_model
            files = self.tree.files_list(top)
            total = 0.0
            n_bytes = 0
            for path, node in files:
                depth = max(1, len([p for p in path.split("/") if p]))
                total += model.metadata_cost(depth)
                total += model.sequential_read_cost(node.size)
                n_bytes += node.size
            entry = (total, len(files), n_bytes)
            cache[key] = entry
        total, n_files, n_bytes = entry
        self.stats["opens"] += n_files
        self.stats["bytes_read"] += n_bytes
        if run.tracer.enabled:
            run.tracer.complete(
                "fs.load_tree", total, backend=self.name, files=n_files, bytes=n_bytes
            )
        if run.metrics.enabled:
            self._io_metrics(n_files, n_bytes)
        return total

    def _io_metrics(self, n_files: int, n_bytes: int) -> None:
        run.metrics.inc("fs.io.files", n_files, backend=self.name, op="read")
        run.metrics.inc("fs.io.bytes", n_bytes, backend=self.name, op="read")

    # -- process-style API ------------------------------------------------------
    def _require_env(self) -> Environment:
        if self.env is None:
            raise RuntimeError(f"backend {self.name!r} not attached to an Environment")
        return self.env

    def proc_open(self, path: str) -> _t.Generator:
        env = self._require_env()
        yield env.sleep(self.est_open(path))
        return path

    def proc_read_file(self, path: str, random: bool = False) -> _t.Generator:
        env = self._require_env()
        cost = self.est_read_file(path, random=random)
        yield env.sleep(cost)
        node = self.tree.get(path)
        assert isinstance(node, FileNode)
        return node.size

    def proc_load_tree(self, top: str = "/") -> _t.Generator:
        env = self._require_env()
        batch = max(1, self.io_batch)
        cache = self.tree.scan_cache(top)
        key = ("load_batches", top, batch, self.cost_model)
        batches = cache.get(key)
        if batches is None:
            model = self.cost_model
            files = self.tree.files_list(top)
            batches = []
            for start in range(0, len(files), batch):
                cost = 0.0
                n_files = 0
                n_bytes = 0
                for path, node in files[start : start + batch]:
                    depth = max(1, len([p for p in path.split("/") if p]))
                    cost += model.metadata_cost(depth)
                    cost += model.sequential_read_cost(node.size)
                    n_files += 1
                    n_bytes += node.size
                batches.append((cost, n_files, n_bytes))
            cache[key] = batches
        with run.tracer.span("fs.load_tree", backend=self.name, top=top):
            for cost, n_files, n_bytes in batches:
                self.stats["opens"] += n_files
                self.stats["bytes_read"] += n_bytes
                if run.metrics.enabled:
                    self._io_metrics(n_files, n_bytes)
                    run.metrics.observe("fs.io.latency", cost, backend=self.name, op="read")
                yield env.sleep(cost)
        return self.tree.total_size(top)


class LocalDisk(StorageBackend):
    """Node-local NVMe."""

    def __init__(self, env: Environment | None = None, name: str = "local-nvme"):
        super().__init__(name, PROFILES["nvme"], env=env)


class TmpFS(StorageBackend):
    """RAM-backed scratch (e.g. /dev/shm extraction target)."""

    def __init__(self, env: Environment | None = None, name: str = "tmpfs"):
        super().__init__(name, PROFILES["tmpfs"], env=env)


class SharedFS(StorageBackend):
    """Shared cluster filesystem (Lustre/GPFS-like).

    Metadata operations funnel through a fixed-capacity metadata server;
    with many clients doing small-file IO the MDS queue dominates — the
    behaviour that motivates flattening container images (§3.2, §4.1.4).
    """

    def __init__(
        self,
        env: Environment | None = None,
        name: str = "sharedfs",
        mds_capacity: int = 32,
    ):
        super().__init__(name, PROFILES["sharedfs_client"], env=env)
        self.mds_capacity = mds_capacity
        self.mds: Resource | None = Resource(env, capacity=mds_capacity) if env else None

    def attach_env(self, env: Environment) -> None:
        self.env = env
        self.mds = Resource(env, capacity=self.mds_capacity)

    def _mds_gate(self) -> _t.Generator:
        """Consult the fault injector before touching the MDS.

        MDS_OUTAGE stalls the caller until the window closes — requests
        queue but nothing errors, modelling a failover blip the way §3.2
        expects clients to ride out.  MDS_DEGRADED returns a latency
        multiplier (>= 1.0) applied to metadata costs for the window.
        """
        env = self._require_env()
        while True:
            fault = run.faults.active("fs.mds", at=env.now, target=self.name)
            if fault is None:
                return 1.0
            if fault.kind is _FaultKind.MDS_OUTAGE:
                yield env.sleep_until(fault.until)
                continue
            return max(1.0, fault.factor)

    def proc_open(self, path: str) -> _t.Generator:
        """Open with MDS contention: each path component is one MDS RPC.

        The per-component RPCs are batched into a single MDS slot held
        for their aggregate latency: one request/timeout/release instead
        of ``depth`` of each, with the same total MDS busy time.
        """
        env = self._require_env()
        assert self.mds is not None
        depth = max(1, len([p for p in path.split("/") if p]))
        self.tree.get(path)
        self.stats["opens"] += 1
        factor = 1.0
        if run.faults.enabled:
            factor = yield from self._mds_gate()
        queued_at = env.now
        req = self.mds.request()
        yield req
        if run.metrics.enabled:
            run.metrics.inc("fs.mds.rpcs", depth, backend=self.name)
            run.metrics.observe("fs.mds.wait", env.now - queued_at, backend=self.name)
        yield env.sleep(self.cost_model.open_cost() * depth * factor)
        self.mds.release(req)
        return path

    def proc_read_file(self, path: str, random: bool = False) -> _t.Generator:
        env = self._require_env()
        node = self.tree.get(path)
        if not isinstance(node, FileNode):
            raise FsError(f"not a file: {path}")
        self.stats["bytes_read"] += node.size
        if random:
            n_ops = max(1, node.size // 4096)
            cost = self.cost_model.random_read_cost(n_ops)
        else:
            cost = self.cost_model.sequential_read_cost(node.size)
        yield env.sleep(cost)
        return node.size

    def proc_load_tree(self, top: str = "/") -> _t.Generator:
        """Load every file under ``top`` through the MDS, in chunks.

        Files are processed ``io_batch`` at a time: each chunk acquires
        one MDS slot and holds it for the analytic sum of its per-
        component RPC latencies (identical total MDS busy time as
        per-file RPCs), then pays the chunk's aggregate streaming-read
        cost off the MDS.  This collapses the thousands of events a
        small-file storm used to schedule into a handful per client.

        Granularity caveat: completion times are exactly
        batch-size-invariant when concurrent clients either fit within
        ``mds_capacity`` or saturate it in full waves (client count a
        multiple of capacity — the regime of every committed benchmark).
        With a partial last wave, coarse chunks leave MDS slots idle
        that fine-grained RPCs would have load-balanced, so end-to-end
        times can differ between batch sizes by up to the last wave's
        occupancy deficit.

        The per-batch (meta, read) cost pairs are memoized in the tree's
        scan cache — a 64-node open storm of the same directory computes
        them once and replays identical timeouts (and ``stats`` deltas)
        for every client.
        """
        env = self._require_env()
        assert self.mds is not None
        batch = max(1, self.io_batch)
        cache = self.tree.scan_cache(top)
        key = ("mds_batches", top, batch, self.cost_model)
        batches = cache.get(key)
        if batches is None:
            open_cost = self.cost_model.open_cost()
            read_cost = self.cost_model.sequential_read_cost
            files = self.tree.files_list(top)
            batches = []
            for start in range(0, len(files), batch):
                meta = 0.0
                read = 0.0
                n_files = 0
                n_bytes = 0
                for path, node in files[start : start + batch]:
                    depth = max(1, len([p for p in path.split("/") if p]))
                    meta += open_cost * depth
                    read += read_cost(node.size)
                    n_files += 1
                    n_bytes += node.size
                batches.append((meta, read, n_files, n_bytes))
            cache[key] = batches
        total = 0
        with run.tracer.span("fs.load_tree", backend=self.name, top=top):
            for meta, read, n_files, n_bytes in batches:
                self.stats["opens"] += n_files
                self.stats["bytes_read"] += n_bytes
                total += n_bytes
                factor = 1.0
                if run.faults.enabled:
                    factor = yield from self._mds_gate()
                queued_at = env.now
                req = self.mds.request()
                yield req
                if run.metrics.enabled:
                    self._io_metrics(n_files, n_bytes)
                    run.metrics.inc("fs.mds.batches", backend=self.name)
                    run.metrics.observe("fs.mds.wait", env.now - queued_at, backend=self.name)
                with run.tracer.span("fs.mds.batch", backend=self.name, files=n_files):
                    yield env.sleep(meta * factor)
                self.mds.release(req)
                yield env.sleep(read)
        return total
