"""Fleet-scale multi-tenant workload engine.

The §6 scenarios exercise the stack at 4–100 nodes and a handful of
pods; the paper's §4 claims about registry pull storms, cache-hit
economics and metadata crush are *fleet-shape* claims that only emerge
when thousands of tenants pull Zipf-distributed images concurrently.
This module simulates that shape directly: a trace-driven fleet of 10k+
nodes serving 1M+ container starts, runnable from the CLI as::

    python -m repro fleet --tenants 2000 --nodes 10000 --starts 1000000 --jobs 8

**The model.**  A :class:`FleetConfig` describes the fleet; the run is
split into ``shards`` independent cells (tenant partitions with their
own node pool and per-cell registry — the standard HPC-site "partition"
layout), each executed by a :class:`FleetShardEngine`:

- arrivals are a Poisson process whose rate follows a
  :class:`~repro.workload.generators.DiurnalProfile` (day/night swing
  plus burst windows);
- each start belongs to a tenant (Zipf-skewed tenant sizes) and names an
  image from the shared catalog (Zipf-skewed image popularity, the §4
  knob);
- every tenant owns a project in a multi-tenant
  :class:`~repro.registry.distribution.OCIDistributionRegistry` with a
  byte quota, and mirrors the catalog into it — content-addressed blob
  dedup means tenants × images *pushes* but only ~images worth of
  stored bytes;
- nodes keep content-addressed image/layer caches: a start whose image
  digest is already on the node is a warm start; a cold start pulls
  through the real registry (fault windows, rate limits, and transfer
  costs included), transferring only the layers the node misses.

**The hot paths.**  A million starts cannot afford one simulator event,
one pod object, and one O(nodes) scheduler scan each.  The engine
therefore

- batches time into epochs: one simulator event per epoch drives an
  exact merge of arrivals (precomputed trace arrays) and completions (a
  calendar of per-epoch buckets; the live epoch's bucket is sorted once
  and popped in ``(end, seq)`` order, with starts that end inside the
  same epoch insorted) — virtual-time results are *identical* to
  one-event-per-start execution;
- runs every placement through one inline block of that merge loop: an
  arrival places itself (or queues when nothing fits), and a completion
  or a node crash/restore drains the queue head-first at its own time —
  no per-start method calls;
- files each completion as a flat record ``(end, seq, slot, gen, node,
  req, tenant, busy)`` that carries everything the completion needs, so
  a completion reads no per-slot arrays; slots are just ids on a free
  list plus a generation counter (no per-start object allocation, no
  retained per-container history);
- places starts through :class:`~repro.cluster.capacity.CapacityIndex`
  (bucketed best-fit, O(log nodes)) instead of a linear scan;
- hands a completion's cores to the queue head without a scan: while
  starts are queued no up node fits the head (every drain ends on a
  refusal, arrivals and crashes only take cores away, an arrival whose
  pull fails returns just what it took, and completions and restores
  drain), so the completed node is the head's only possible fit, and
  ``CapacityIndex.release`` given the head's request either places it
  there or proves nothing fits;
- pays the registry once per cold-pull shape: a pull's price depends
  only on the image and which of its layers the node already holds, so
  outside the plan's registry fault windows the first pull of each
  shape is priced through ``_cold_pull`` and the real
  :meth:`~repro.registry.distribution.OCIDistributionRegistry.pull_image`
  and every later one is a lookup in the shard's pull table (see
  :meth:`FleetShardEngine._pull_table`); a pull inside a window goes
  through ``_cold_pull`` alone.  One accounting step follows either way
  (node layers, the tenant's ``cold_pulls``/``pulled_bytes``, the
  cold-pull metric); a request above the index's free-core bound
  (``max_free``) queues without probing the index;
- streams per-tenant results into :class:`TenantStats` accumulators and
  fixed-bucket histograms;
- feeds labeled metrics through interned series keys
  (:meth:`~repro.obs.metrics.MetricsRegistry.series_key`) so the
  per-start path never rebuilds label dicts.

``tests/oracles/fleet.py`` runs the same shards the slow way, with
bodies of its own — one simulator event per arrival, completion and
fault edge, placement by a linear capacity scan — and the fleet tests
hold its reports byte-identical to the epoch pump's, with and without
chaos.

**Chaos.**  A :class:`~repro.faults.plan.FaultPlan` can be delivered
into a fleet run (``python -m repro fleet --chaos`` / ``--faults``).
Pull-style registry windows (429, timeout, slow-blob) are polled by the
real pull path: a cold pull placed inside one retries with jitter-free
backoff and charges :class:`TenantStats.failed` when the
:class:`~repro.faults.retry.RetryPolicy` gives up.  Push-style
``NODE_CRASH`` events target synthetic ``fleet-node-NNNNN`` ids (see
:func:`fleet_node_name`): the engine merges the plan's crash/restore
edges as a third stream into the epoch merge (edges win ties over
completions, completions over arrivals — exactly the URGENT-before-
NORMAL order of one-event-per-edge execution, so the oracle equivalence
holds under chaos too).  A crash kills every slot on the node (their starts
requeue through placement, the capacity ledger forgets the node), a
restore returns the node fully free; slots are generation-counted so a
killed slot's stale completion is skipped wherever it surfaces.  Only
runs with crash edges keep each slot's node (-1 once free) and trace
index for the crash scan; the others pay one integer compare per epoch
and per merge step.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing as _t
from bisect import bisect_left, insort
from collections import deque
from heapq import heappop, heappush

import numpy as np

from repro.cluster.capacity import CapacityIndex
from repro.faults.plan import PUSH_KINDS, FaultEvent, FaultKind, FaultPlan
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.obs import timeseries as _timeseries
from repro.obs.shape import MapOf, check_file, shape_problems
from repro.registry.distribution import (
    OCIDistributionRegistry,
    RegistryUnavailable,
)
from repro.registry.quota import QuotaManager
from repro.run import run
from repro.sim import Environment
from repro.sim.rng import DeterministicRNG
from repro.workload.generators import (
    DiurnalProfile,
    ZipfSampler,
    modulated_poisson_arrivals,
    weighted_choice_indices,
    zipf_weights,
)

#: queue-wait histogram bounds (seconds); +inf bucket is implicit
WAIT_BUCKETS: tuple[float, ...] = (0.0, 1.0, 5.0, 15.0, 60.0, 300.0)

#: per-tenant time series are sampled only when a shard owns at most this
#: many tenants — smoke-scale runs get full tenant detail, the 2000-tenant
#: flagship keeps its per-tick sampling cost at O(shard aggregates)
TENANT_SERIES_MAX = 16

#: one sampler tick's shard series, in order (the last three are per-tick
#: deltas: probe-recorded series get no automatic ``.rate``), then per tenant
_SHARD_SERIES = (
    "fleet.pending", "fleet.live", "fleet.starts_total", "fleet.cold_pulls_total",
    "fleet.warm_rate", "fleet.pulled_bytes_total", "fleet.wait_mean",
    "fleet.wait_max", "fleet.quota_used", "fleet.failed_total", "fleet.nodes_down",
    "fleet.requeues", "fleet.failures", "fleet.retries",
)
_TENANT_SERIES = ("fleet.tenant.starts", "fleet.tenant.cold_pulls",
                  "fleet.tenant.warm_rate", "fleet.tenant.wait_mean")


def _latest_first(record: tuple) -> tuple:
    """Sort key of the live epoch's bucket, which the pump sorts latest-
    first and pops from the end: descending ``(end, seq)``."""
    return (-record[0], -record[1])


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Everything that defines a fleet run (plain JSON-able values).

    The config *is* the run: traces, shard partitions and therefore
    every result are pure functions of it, which is what the CLI's
    "byte-identical for any ``--jobs``" contract rests on.  Scale knobs:
    ``tenants`` / ``nodes`` / ``starts`` / ``images`` size the fleet;
    ``zipf_s`` (image popularity) and ``tenant_skew`` (tenant sizes) set
    the §4 skew; ``day`` is the diurnal period the Poisson arrival rate
    swings over, and ``amplitude`` its day/night swing.  Placement knobs:
    ``node_cpus`` per node, with per-start requests drawn from
    ``cpu_choices`` weighted by ``cpu_shares``, and busy time of
    ``duration_mean``-exponential seconds plus the startup cost (a warm
    start costs ``warm_start_s``; a cold pull adds transfer plus unpack
    at ``unpack_bandwidth``).  Execution knobs: ``shards`` fixes the
    cell partition (NOT the worker count), ``epoch`` is the fast
    engine's batching grain (results are exact, not approximated, at any
    epoch length).
    """

    tenants: int = 64
    nodes: int = 128
    starts: int = 5000
    images: int = 24
    zipf_s: float = 1.2
    tenant_skew: float = 0.8
    seed: int = 0
    node_cpus: int = 8
    cpu_choices: tuple[int, ...] = (1, 2, 4)
    cpu_shares: tuple[float, ...] = (0.5, 0.3, 0.2)
    duration_mean: float = 90.0
    day: float = 1800.0
    epoch: float = 1.0
    warm_start_s: float = 0.4
    unpack_bandwidth: float = 400e6
    shards: int = 8
    amplitude: float = 0.6

    #: Retired key, written as ``false`` into every serialized config:
    #: the ``repro-fleet-report/2`` and ``repro-fleet-replay-report/1``
    #: config blocks (and the reference digests taken over them) carry
    #: it from when the engine had a second, one-event-per-start mode.
    _RETIRED_KEY: _t.ClassVar[str] = "naive"

    def __post_init__(self) -> None:
        ints = [
            (name, getattr(self, name))
            for name in ("tenants", "nodes", "starts", "images", "seed", "node_cpus",
                         "shards")
        ]
        for name, value in ints + [("cpu_choices", v) for v in self.cpu_choices]:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("tenants", "nodes", "images", "shards"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.starts < 0:
            raise ValueError(f"starts must be >= 0, got {self.starts}")
        if max(self.cpu_choices) > self.node_cpus:
            raise ValueError(
                f"largest request ({max(self.cpu_choices)} cpus) exceeds "
                f"node capacity ({self.node_cpus}) — starts could never place"
            )
        if len(self.cpu_choices) != len(self.cpu_shares):
            raise ValueError("cpu_choices and cpu_shares must align")
        reals = [
            (name, getattr(self, name))
            for name in ("zipf_s", "tenant_skew", "duration_mean", "day", "epoch",
                         "warm_start_s", "unpack_bandwidth")
        ]
        for name, value in reals + [("cpu_shares", v) for v in self.cpu_shares]:
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("epoch", "day", "unpack_bandwidth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not sum(self.cpu_shares) > 0:
            raise ValueError("cpu_shares must not all be zero")
        self.profile()  # DiurnalProfile rejects an amplitude outside [0, 1)

    # -- serialization (cells carry the config as a JSON string) ------------
    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        data[self._RETIRED_KEY] = False
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetConfig":
        """Parse :meth:`to_json` output; a key that names no field, or
        the retired key set to anything but ``false``, is a
        :class:`ValueError` naming the key."""
        data = json.loads(text)
        if data.pop(cls._RETIRED_KEY, False) is not False:
            raise ValueError(
                f"FleetConfig key {cls._RETIRED_KEY!r} is retired and must be false"
            )
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown FleetConfig key(s): {', '.join(unknown)}")
        for field in ("cpu_choices", "cpu_shares"):
            data[field] = tuple(data[field])
        return cls(**data)

    def profile(self) -> DiurnalProfile:
        return DiurnalProfile(amplitude=self.amplitude)

    # -- shard partitioning (fixed by config, independent of --jobs) --------
    @property
    def effective_shards(self) -> int:
        return max(1, min(self.shards, self.tenants, self.nodes))

    def shard_tenant_ids(self, shard: int) -> list[int]:
        """Global tenant ids owned by ``shard`` (round-robin, so every
        shard gets a mix of head and tail tenants)."""
        return list(range(shard, self.tenants, self.effective_shards))

    def shard_node_count(self, shard: int) -> int:
        shards = self.effective_shards
        return self.nodes // shards + (1 if shard < self.nodes % shards else 0)

    def shard_node_base(self, shard: int) -> int:
        """First global node id owned by ``shard`` — shards own
        contiguous id blocks, so fault-plan targets (global
        ``fleet-node-NNNNN`` names) map to exactly one shard."""
        shards = self.effective_shards
        return (self.nodes // shards) * shard + min(shard, self.nodes % shards)

    def shard_start_counts(self) -> list[int]:
        """Starts per shard, proportional to tenant count (largest-
        remainder rounding, so the counts always sum to ``starts``)."""
        shards = self.effective_shards
        counts = [len(self.shard_tenant_ids(s)) for s in range(shards)]
        exact = [self.starts * c / self.tenants for c in counts]
        base = [int(x) for x in exact]
        leftover = self.starts - sum(base)
        order = sorted(range(shards), key=lambda s: (-(exact[s] - base[s]), s))
        for s in order[:leftover]:
            base[s] += 1
        return base


@dataclasses.dataclass
class ShardTrace:
    """One shard's precomputed arrival trace as flat arrays.

    ``tenants_local`` indexes into the shard's ``tenant_ids`` list (not
    global tenant ids); ``image_arr`` is the numpy view of ``images``
    kept for vectorized demand accounting.
    """

    times: list[float]
    image_arr: "np.ndarray"
    images: list[int]
    tenants_local: list[int]
    cpus: list[int]
    durations: list[float]


def generate_shard_trace(
    config: FleetConfig,
    shard: int,
    n_starts: int | None = None,
    tenant_ids: list[int] | None = None,
) -> ShardTrace:
    """Generate shard ``shard``'s arrival trace.

    Stream names are keyed by shard only (``shard{N}.arrivals`` etc. off
    a :class:`DeterministicRNG` seeded with ``config.seed``), so the
    trace depends on the config alone — every consumer (the fleet
    engine, the §6.5 replay bridge, tests) sees byte-identical arrays.
    ``n_starts`` / ``tenant_ids`` default to the config's own partition
    (:meth:`FleetConfig.shard_start_counts` /
    :meth:`FleetConfig.shard_tenant_ids`); overriding them reuses the
    generator for custom partitions without changing the stream keying.
    Returns a :class:`ShardTrace` of parallel flat arrays — arrival
    times (diurnal Poisson), image ids (Zipf), shard-local tenant
    indexes (Zipf-weighted), cpu requests, and busy durations.
    """
    if n_starts is None:
        n_starts = config.shard_start_counts()[shard]
    if tenant_ids is None:
        tenant_ids = config.shard_tenant_ids(shard)
    rng = DeterministicRNG(config.seed)
    n = n_starts
    tag = f"shard{shard}"
    if n == 0:
        return ShardTrace(
            times=[],
            image_arr=np.empty(0, dtype=np.int64),
            images=[],
            tenants_local=[],
            cpus=[],
            durations=[],
        )
    base_rate = n / config.day
    times = modulated_poisson_arrivals(
        rng.stream(f"{tag}.arrivals"), n, base_rate,
        config.profile(), config.day,
    )
    image_sampler = ZipfSampler(config.images, config.zipf_s)
    images = image_sampler.sample(rng.stream(f"{tag}.images"), n)
    tenant_weights = zipf_weights(config.tenants, config.tenant_skew)
    local_weights = tenant_weights[np.asarray(tenant_ids)]
    tenants_local = weighted_choice_indices(
        rng.stream(f"{tag}.tenants"), local_weights, n
    )
    cpus = weighted_choice_indices(
        rng.stream(f"{tag}.cpus"), np.asarray(config.cpu_shares), n
    )
    cpu_lookup = np.asarray(config.cpu_choices, dtype=np.int64)
    durations = rng.stream(f"{tag}.durations").exponential(
        config.duration_mean, size=n
    )
    # Python lists: element access in the hot loop skips np boxing.
    return ShardTrace(
        times=times.tolist(),
        image_arr=images,
        images=images.tolist(),
        tenants_local=tenants_local.tolist(),
        cpus=cpu_lookup[cpus].tolist(),
        durations=durations.tolist(),
    )


# -- fault-plan targeting ------------------------------------------------------

def fleet_node_name(node: int) -> str:
    """The synthetic name of global fleet node ``node`` — the namespace
    fault plans target (``FaultEvent.target``) for fleet node crashes."""
    return f"fleet-node-{node:05}"


def fleet_node_names(config: FleetConfig) -> list[str]:
    """Every node name in ``config``'s fleet, in global id order."""
    return [fleet_node_name(i) for i in range(config.nodes)]


def generate_fleet_plan(
    config: FleetConfig,
    seed: int | None = None,
    kinds: _t.Sequence["FaultKind"] | None = None,
) -> FaultPlan:
    """A deterministic default fault plan sized for ``config``.

    Wraps :meth:`FaultPlan.generate` with the fleet's target pool (the
    synthetic node names) and a horizon inside the arrival window, so
    crashes land while slots are live.  Default kinds: two node crashes
    plus a registry 429 window and a slow-blob window — the §6 failure
    modes the fleet path exercises.  ``seed`` defaults to
    ``config.seed``; the plan is a pure function of its arguments.
    """
    if seed is None:
        seed = config.seed
    if kinds is None:
        kinds = [
            FaultKind.NODE_CRASH,
            FaultKind.NODE_CRASH,
            FaultKind.REGISTRY_429,
            FaultKind.REGISTRY_SLOW_BLOB,
        ]
    return FaultPlan.generate(
        seed=seed,
        horizon=config.day,
        kinds=kinds,
        targets={FaultKind.NODE_CRASH: fleet_node_names(config)},
    )


class ImageCatalog:
    """The shared image catalog tenants mirror into their projects.

    Images share layers deliberately — one distro base (two variants),
    one runtime layer (three variants), one unique app layer — so the
    content-addressed economics have something to deduplicate, exactly
    like a site's stack of pipeline images over common bases.
    """

    def __init__(self, images: list, digests: list[str],
                 layer_digests: list[tuple[str, ...]],
                 layer_sizes: list[tuple[int, ...]],
                 compressed_sizes: list[int]):
        self.images = images
        self.digests = digests
        self.layer_digests = layer_digests
        self.layer_sizes = layer_sizes
        self.compressed_sizes = compressed_sizes

    def __len__(self) -> int:
        return len(self.images)

    @classmethod
    def build(cls, n_images: int) -> "ImageCatalog":
        from repro.fs.tree import FileTree
        from repro.oci.image import ImageConfig, OCIImage
        from repro.oci.layer import Layer

        def base_layer(variant: int) -> Layer:
            tree = FileTree()
            tree.create_file("/bin/sh", size=120_000, mode=0o755)
            tree.create_file("/etc/os-release", data=f"ID=fleet-base-{variant}\n".encode())
            for i in range(30):
                tree.create_file(f"/usr/lib/lib{i:03}.so", size=400_000 + variant * 7_000,
                                 mode=0o755)
            return Layer(tree, created_by=f"FROM scratch (fleet base {variant})")

        def runtime_layer(variant: int) -> Layer:
            tree = FileTree()
            name = ("python", "mpi", "tools")[variant]
            tree.create_file(f"/opt/{name}/bin/{name}", size=6_000_000, mode=0o755)
            for i in range(40):
                tree.create_file(f"/opt/{name}/lib/m{i:03}.bin", size=150_000)
            return Layer(tree, created_by=f"RUN install {name}")

        bases = [base_layer(v) for v in range(2)]
        runtimes = [runtime_layer(v) for v in range(3)]
        images, digests, layer_digests, layer_sizes, compressed = [], [], [], [], []
        for img in range(n_images):
            tree = FileTree()
            app_size = 4_000_000 + (img * 7919) % 60_000_001
            tree.create_file(f"/srv/app{img:03}/run", size=app_size, mode=0o755)
            tree.create_file(f"/srv/app{img:03}/conf.yaml", size=2_000)
            app = Layer(tree, created_by=f"COPY app{img:03}")
            layers = [bases[img % 2], runtimes[img % 3], app]
            image = OCIImage(ImageConfig(cmd=(f"/srv/app{img:03}/run",)), layers)
            images.append(image)
            digests.append(image.digest)
            layer_digests.append(tuple(layer.digest for layer in layers))
            layer_sizes.append(tuple(layer.compressed_size for layer in layers))
            compressed.append(image.compressed_size)
        return cls(images, digests, layer_digests, layer_sizes, compressed)


class TenantStats:
    """Streaming per-tenant accumulator — the fleet never retains a
    per-container record."""

    __slots__ = ("starts", "completions", "failed", "cold_pulls",
                 "pulled_bytes", "wait_sum", "wait_max", "cpu_seconds")

    def __init__(self) -> None:
        self.starts = 0
        self.completions = 0
        self.failed = 0
        self.cold_pulls = 0
        self.pulled_bytes = 0
        self.wait_sum = 0.0
        self.wait_max = 0.0
        self.cpu_seconds = 0.0

    def as_tuple(self) -> tuple:
        return (self.starts, self.completions, self.failed, self.cold_pulls,
                self.pulled_bytes, self.wait_sum, self.wait_max, self.cpu_seconds)


@dataclasses.dataclass
class FleetShardResult:
    """One shard's outputs: plain picklable accumulators."""

    shard: int
    tenants: dict[int, tuple]
    starts: int = 0
    completions: int = 0
    failed: int = 0
    warm_starts: int = 0
    cold_pulls: int = 0
    retry_attempts: int = 0
    pulled_bytes: int = 0
    demand_bytes: int = 0
    registry_pushes: int = 0
    registry_pulls: int = 0
    blob_uploads_skipped: int = 0
    stored_bytes: int = 0
    quota_used: int = 0
    pending_peak: int = 0
    live_peak: int = 0
    wait_hist: list[int] = dataclasses.field(
        default_factory=lambda: [0] * (len(WAIT_BUCKETS) + 1))
    wait_sum: float = 0.0
    wait_max: float = 0.0
    makespan: float = 0.0
    epochs: int = 0
    leaks: list[str] = dataclasses.field(default_factory=list)
    #: chaos accounting (all zero/empty when no plan was armed)
    crashes: int = 0
    requeues: int = 0
    injected: dict[str, int] = dataclasses.field(default_factory=dict)
    injected_at: dict[str, float] = dataclasses.field(default_factory=dict)
    fault_retries: dict[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class FleetResult:
    """The merged fleet run (associative fold of shard results)."""

    config: FleetConfig
    shards: int
    tenants: dict[int, tuple]
    starts: int
    completions: int
    failed: int
    warm_starts: int
    cold_pulls: int
    retry_attempts: int
    pulled_bytes: int
    demand_bytes: int
    registry_pushes: int
    registry_pulls: int
    blob_uploads_skipped: int
    stored_bytes: int
    quota_used: int
    pending_peak: int
    live_peak: int
    wait_hist: list[int]
    wait_sum: float
    wait_max: float
    makespan: float
    epochs: int
    leaks: list[str]
    #: chaos accounting (all zero/empty when no plan was armed)
    crashes: int = 0
    requeues: int = 0
    injected: dict[str, int] = dataclasses.field(default_factory=dict)
    injected_at: dict[str, float] = dataclasses.field(default_factory=dict)
    fault_retries: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def warm_rate(self) -> float:
        return self.warm_starts / self.starts if self.starts else 0.0

    @property
    def bytes_saved_ratio(self) -> float:
        """Transfer bytes the node/image caches absorbed, as a fraction
        of the cache-free demand — the §4 cache-economics number."""
        if not self.demand_bytes:
            return 0.0
        return 1.0 - self.pulled_bytes / self.demand_bytes

    @property
    def mean_wait(self) -> float:
        return self.wait_sum / self.starts if self.starts else 0.0


def merge_shard_results(
    results: _t.Sequence[FleetShardResult], config: FleetConfig
) -> FleetResult:
    """Fold shard results in shard order (sums, maxes, dict union)."""
    tenants: dict[int, tuple] = {}
    hist = [0] * (len(WAIT_BUCKETS) + 1)
    totals = dict(starts=0, completions=0, failed=0, warm_starts=0,
                  cold_pulls=0, retry_attempts=0, pulled_bytes=0,
                  demand_bytes=0, registry_pushes=0, registry_pulls=0,
                  blob_uploads_skipped=0, stored_bytes=0, quota_used=0,
                  epochs=0, crashes=0, requeues=0)
    wait_sum = 0.0
    wait_max = 0.0
    makespan = 0.0
    pending_peak = 0
    live_peak = 0
    leaks: list[str] = []
    injected: dict[str, int] = {}
    injected_at: dict[str, float] = {}
    fault_retries: dict[str, int] = {}
    for res in sorted(results, key=lambda r: r.shard):
        tenants.update(res.tenants)
        for key in totals:
            totals[key] += getattr(res, key)
        for i, count in enumerate(res.wait_hist):
            hist[i] += count
        wait_sum += res.wait_sum
        wait_max = max(wait_max, res.wait_max)
        makespan = max(makespan, res.makespan)
        pending_peak = max(pending_peak, res.pending_peak)
        live_peak = max(live_peak, res.live_peak)
        leaks.extend(f"shard {res.shard}: {leak}" for leak in res.leaks)
        for kind, count in res.injected.items():
            injected[kind] = injected.get(kind, 0) + count
        for kind, at in res.injected_at.items():
            if kind not in injected_at or at < injected_at[kind]:
                injected_at[kind] = at
        for subsystem, count in res.fault_retries.items():
            fault_retries[subsystem] = fault_retries.get(subsystem, 0) + count
    return FleetResult(
        config=config, shards=len(results), tenants=tenants,
        pending_peak=pending_peak, live_peak=live_peak, wait_hist=hist,
        wait_sum=wait_sum, wait_max=wait_max, makespan=makespan,
        leaks=leaks, injected=injected, injected_at=injected_at,
        fault_retries=fault_retries, **totals,
    )


class FleetShardEngine:
    """Simulates one fleet shard: its tenants, nodes, and registry."""

    def __init__(self, env: Environment, config: FleetConfig, shard: int,
                 plan: FaultPlan | None = None):
        self.env = env
        self.config = config
        self.shard = shard
        self.tenant_ids = config.shard_tenant_ids(shard)
        self.n_nodes = config.shard_node_count(shard)
        self.n_starts = config.shard_start_counts()[shard]
        self.catalog = ImageCatalog.build(config.images)
        self._retry = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=60.0)
        self._build_registry()
        self._generate_trace()
        # -- placement + node caches ---------------------------------------
        self.index = CapacityIndex(self.n_nodes, config.node_cpus)
        self.node_images: list[set[str]] = [set() for _ in range(self.n_nodes)]
        self.node_layers: list[set[str]] = [set() for _ in range(self.n_nodes)]
        # -- pooled slots (free list; a completion record carries its data) -
        #: generation counter, bumped when a crash kills the slot — stale
        #: completion records carry the old generation and are skipped
        self._slot_gen: list[int] = []
        self._free_slots: list[int] = []
        #: node (-1 once the slot is free) and trace index per slot, kept
        #: only while armed (the crash kill-scan and its requeues read them)
        self._slot_node: list[int] = []
        self._slot_k: list[int] = []
        # -- completion calendar (per-epoch buckets of completion records
        # ``(end, seq, slot, gen, node, req, tenant, busy)``) ---------------
        self._calendar: dict[int, list[tuple]] = {}
        self._cal_heap: list[int] = []
        #: the live epoch's bucket, sorted latest-first and popped from the
        #: end, so it always holds exactly the records still to deliver
        self._bucket: list[tuple] = []
        self._pending: deque[tuple[int, float]] = deque()
        self._live = 0
        # -- chaos: the plan's crash/restore edges as a third merge stream --
        self._fault_edges = self._index_plan(plan)
        #: the plan's ``registry.pull`` windows on this shard's registry: a
        #: cold pull placed inside one goes through the registry on its own
        self._pull_windows = [
            e for e in (plan or ())
            if e.point == "registry.pull" and e.matches(self.registry.name)
        ]
        #: crash bookkeeping (slot node/k writes, generation reads)
        #: is skipped wholesale on the disarmed hot path — with no crash
        #: edges every generation stays 0, so the records are identical
        self._armed = bool(self._fault_edges)
        self._crashes = 0
        self._requeues = 0
        self._last_requeues = 0
        self._last_failed = 0
        self._last_retries = 0
        # -- cold-pull constants (one attribute hop instead of a chain) -----
        self._warm_start_s = config.warm_start_s
        self._inv_unpack = 1.0 / config.unpack_bandwidth
        # -- streaming results (peaks/sums folded into the result at end) ---
        self._warm_starts = 0
        #: placements so far (the pump's record ``seq``): every placement
        #: is a warm start or a cold pull, so the sampler folds neither
        self._placements = 0
        self._makespan = 0.0
        self._pending_peak = 0
        self._live_peak = 0
        self._wait_hist = [0] * (len(WAIT_BUCKETS) + 1)
        self.stats = [TenantStats() for _ in self.tenant_ids]
        self.result = FleetShardResult(shard=shard, tenants={})
        self.result.demand_bytes = int(
            np.asarray(self.catalog.compressed_sizes)[self._image_arr].sum()
        ) if self.n_starts else 0
        self._rec = rec = run.recorder
        #: the sampled series keys, interned once: per shard, then per tenant
        tenants = self.tenant_ids if len(self.tenant_ids) <= TENANT_SERIES_MAX else []
        self._sample_keys = (
            [rec.series_key(name, shard=str(shard)) for name in _SHARD_SERIES],
            [[rec.series_key(name, tenant=f"t{gid:05}") for name in _TENANT_SERIES]
             for gid in tenants],
        )
        self._metric_keys = None
        if run.metrics.enabled:
            reg = run.metrics
            self._metric_keys = [
                (reg.series_key("fleet.starts", tenant=f"t{gid:05}"),
                 reg.series_key("fleet.cold_pulls", tenant=f"t{gid:05}"))
                for gid in self.tenant_ids
            ]

    # -- setup ---------------------------------------------------------------
    def _build_registry(self) -> None:
        config = self.config
        quotas = QuotaManager()
        self.registry = OCIDistributionRegistry(
            name=f"fleet-registry-{self.shard}", multi_tenant=True, quotas=quotas,
        )
        catalog_bytes = sum(self.catalog.compressed_sizes)
        self._repos: list[list[str]] = []
        for gid in self.tenant_ids:
            project = f"t{gid:05}"
            self.registry.create_tenant(project)
            quotas.set_limit(project, 2 * catalog_bytes + 1)
            repos = [f"{project}/img{img:03}" for img in range(len(self.catalog))]
            self._repos.append(repos)
            for img, repo in enumerate(repos):
                self.registry.push_image(repo, "v1", self.catalog.images[img])
        self._quota_total = sum(
            quotas.used(f"t{gid:05}") for gid in self.tenant_ids
        )

    def _generate_trace(self) -> None:
        """Precompute the shard's whole arrival trace as flat arrays."""
        trace = generate_shard_trace(
            self.config, self.shard, n_starts=self.n_starts,
            tenant_ids=self.tenant_ids,
        )
        self._times = trace.times
        self._image_arr = trace.image_arr
        self._images = trace.images
        self._tenants_local = trace.tenants_local
        self._cpus = trace.cpus
        self._durations = trace.durations

    # -- chaos: push-fault edge stream ---------------------------------------
    def _index_plan(
        self, plan: FaultPlan | None
    ) -> list[tuple[float, int, int, int, FaultEvent]]:
        """The plan's push events as ``(t, seq, local_node, phase, event)``
        edges — phase 0 is the crash, phase 1 the restore (always paired,
        even for duration-0 events, so a crashed node never stays down).
        Targets outside this shard's contiguous node block are dropped;
        the list is sorted by ``(t, seq)`` so overlapping events keep
        plan order, matching the injector driver's delivery order."""
        if plan is None:
            return []
        base = self.config.shard_node_base(self.shard)
        local_by_name = {
            fleet_node_name(base + i): i for i in range(self.n_nodes)
        }
        edges: list[tuple[float, int, int, int, FaultEvent]] = []
        order = 0
        for event in plan.push_events():
            if event.target is None:
                continue  # a fleet crash needs a concrete victim
            node = local_by_name.get(event.target)
            if node is None:
                continue  # some other shard owns this node
            edges.append((event.at, order, node, 0, event))
            edges.append((event.until, order + 1, node, 1, event))
            order += 2
        edges.sort(key=lambda edge: (edge[0], edge[1]))
        return edges

    def _deliver_edge(self, edge: tuple[float, int, int, int, FaultEvent]) -> None:
        """Apply one crash or restore edge; the pump then drains the
        placement queue at the edge time.  An edge that finds its node
        already in the target state changes nothing, so that drain
        places nothing: the queue head did not fit before the edge.

        A crash kills every live slot on the node and takes it out of
        the pool.  Killed slots requeue their starts (wait restarts at
        crash time), bump their generation so the stale completion
        record is skipped wherever it surfaces, and return to the free
        list.  Their cores are *not* released: the restore recreates the
        node's full capacity in one step."""
        t, _seq, node, phase, event = edge
        index = self.index
        if phase == 1:
            if node in index.down:
                index.restore_node(node)
            return
        run.faults.record_push(event, t)
        if node in index.down:
            return  # overlapping crash windows: first one owns the node
        slot_node = self._slot_node
        slot_gen = self._slot_gen
        slot_k = self._slot_k
        free_slots = self._free_slots
        pending = self._pending
        killed = 0
        for slot, on in enumerate(slot_node):
            if on == node:
                slot_node[slot] = -1
                slot_gen[slot] += 1
                free_slots.append(slot)
                pending.append((slot_k[slot], t))
                killed += 1
        self._live -= killed
        index.remove_node(node)
        self._crashes += 1
        self._requeues += killed
        if len(pending) > self._pending_peak:
            self._pending_peak = len(pending)

    # -- the run -------------------------------------------------------------
    def run(self) -> FleetShardResult:
        if self.n_starts or self._fault_edges:
            self.env.process(self._pump(), name=f"fleet-pump-{self.shard}")
            self.env.run()
            if self._rec.due(self.env.now):
                self._sample_timeseries(self._rec)  # final-state tick
        res = self.result
        res.crashes = self._crashes
        res.requeues = self._requeues
        res.warm_starts = self._warm_starts
        res.makespan = self._makespan
        res.pending_peak = self._pending_peak
        res.live_peak = self._live_peak
        res.wait_hist = self._wait_hist
        res.tenants = {
            gid: stats.as_tuple()
            for gid, stats in zip(self.tenant_ids, self.stats)
        }
        res.starts = sum(s.starts for s in self.stats)
        res.completions = sum(s.completions for s in self.stats)
        res.failed = sum(s.failed for s in self.stats)
        res.cold_pulls = sum(s.cold_pulls for s in self.stats)
        res.pulled_bytes = sum(s.pulled_bytes for s in self.stats)
        res.wait_sum = sum(s.wait_sum for s in self.stats)
        res.wait_max = max((s.wait_max for s in self.stats), default=0.0)
        res.registry_pushes = self.registry.stats["pushes"]
        res.registry_pulls = self.registry.stats["pulls"]
        res.blob_uploads_skipped = self.registry.stats["blob_uploads_skipped"]
        res.stored_bytes = self.registry.store.used_bytes
        res.quota_used = self._quota_total
        res.leaks = self.leak_descriptions()
        return res

    # -- leak audit surface (repro.faults.leaks duck-types this) -------------
    def leak_descriptions(self) -> list[str]:
        """Post-run invariants: every slot freed, every core returned,
        nothing still queued — the fleet equivalent of §3.2's "no
        lingering processes".  Undelivered completions are counted in
        the calendar and the live epoch's bucket, once each, skipping
        the records of slots a crash killed."""
        leaks: list[str] = []
        if self._live:
            leaks.append(f"{self._live} container slot(s) still live after drain")
        if self._pending:
            leaks.append(f"{len(self._pending)} start(s) still queued for placement")
        slot_gen = self._slot_gen
        undelivered = sum(
            1 for bucket in (self._bucket, *self._calendar.values())
            for _end, _seq, slot, gen, *_ in bucket if slot_gen[slot] == gen
        )
        if undelivered:
            leaks.append(f"{undelivered} completion(s) never delivered")
        if self.index.down:
            leaks.append(
                f"{len(self.index.down)} node(s) still down after drain"
            )
        total = self.n_nodes * self.config.node_cpus
        if self.index.total_free != total:
            leaks.append(
                f"capacity leak: {total - self.index.total_free} core(s) "
                f"never returned to the free pool"
            )
        return leaks

    # -- the epoch-batched pump ----------------------------------------------
    def _pump(self):
        """The epoch-batched merge: one simulator event per epoch with work.

        Inside an epoch, fault edges, completions and arrivals merge in
        exact ``(time, stream)`` order — edges win every tie and
        completions win ties over arrivals (free before place), the
        order one event per occurrence gives: edges are init-scheduled
        URGENT events (lowest seq), completions run-scheduled URGENT,
        arrivals NORMAL.  Each step feeds the one placement block below:
        an arrival places itself (or queues when nothing fits), a
        completion or a state-changing edge drains the queue head-first
        at its own time.  No up node fits the queue head between drains,
        so a completion offers its cores to the head in its release: the
        head is placed on that node (the hand-off) or waits, with no
        scan; later heads of the same drain go through ``alloc``.
        Counters live in locals and are written back at each epoch end
        and around an edge delivery.
        """
        env = self.env
        epoch_len = self.config.epoch
        n = self.n_starts
        times, cpus, images = self._times, self._cpus, self._images
        tenants_local, durations = self._tenants_local, self._durations
        digests, node_images, stats = self.catalog.digests, self.node_images, self.stats
        layer_digests, node_layers = self.catalog.layer_digests, self.node_layers
        warm_start_s, cold_pull = self._warm_start_s, self._cold_pull
        index, registry, repos = self.index, self.registry, self._repos
        pull_table, windows = self._pull_table(), self._pull_windows
        registry_stats = registry.stats
        note_pull = registry.note_pull if run.tracer.enabled or run.metrics.enabled else None
        alloc, release = index.alloc, index.release
        calendar, cal_heap, pending = self._calendar, self._cal_heap, self._pending
        edges = self._fault_edges
        ne = len(edges)
        armed, slot_gen, free_slots = self._armed, self._slot_gen, self._free_slots
        slot_node, slot_k = self._slot_node, self._slot_k
        hist = self._wait_hist
        metric_keys, inc_series = self._metric_keys, run.metrics.inc_series
        prof = run.counters
        live = live_peak = pending_peak = warm_starts = seq = 0
        makespan = 0.0
        i = e = 0
        while i < n or live or pending or e < ne:
            # next epoch with work: earliest arrival, completion bucket,
            # or fault edge
            epoch = None
            if i < n:
                epoch = int(times[i] // epoch_len)
            while cal_heap and calendar.get(cal_heap[0]) is None:
                heappop(cal_heap)  # bucket already claimed as a live bucket
            if cal_heap and (epoch is None or cal_heap[0] < epoch):
                epoch = cal_heap[0]
            if e < ne:
                edge_epoch = int(edges[e][0] // epoch_len)
                if epoch is None or edge_epoch < epoch:
                    epoch = edge_epoch
            if epoch is None:
                raise RuntimeError(
                    "fleet pump stalled: pending starts but no completions due"
                )
            boundary = (epoch + 1) * epoch_len
            if boundary > env.now:
                yield env.sleep_until(boundary)
            # claim this epoch's completion bucket, sorted once latest-first
            bucket = calendar.pop(epoch, None)
            if bucket is None:
                bucket = []
            else:
                if cal_heap and cal_heap[0] == epoch:
                    heappop(cal_heap)
                bucket.sort(reverse=True)
            self._bucket = bucket
            # arrivals that fall inside this epoch
            j = bisect_left(times, boundary, i)
            k = i
            while True:
                if (e < ne and edges[e][0] < boundary
                        and (not bucket or edges[e][0] <= bucket[-1][0])
                        and (k >= j or edges[e][0] <= times[k])):
                    edge = edges[e]
                    e += 1
                    self._live = live
                    self._pending_peak = pending_peak
                    self._deliver_edge(edge)
                    live = self._live
                    pending_peak = self._pending_peak
                    if not pending:
                        continue
                    place_t = edge[0]
                    drain = True
                    node = None
                elif bucket and (k >= j or bucket[-1][0] <= times[k]):
                    place_t, _seq, slot, gen, node, req, tloc, busy = bucket.pop()
                    if armed:
                        if slot_gen[slot] != gen:
                            continue  # slot killed by a crash; counted there
                        slot_node[slot] = -1
                    st = stats[tloc]
                    st.completions += 1
                    st.cpu_seconds += busy * req
                    live -= 1
                    free_slots.append(slot)
                    if not pending:
                        release(node, req)
                        continue
                    # no other up node fits the head: it takes these
                    # cores, or nothing fits it anywhere
                    kk, arrival_t = pending[0]
                    if not release(node, req, cpus[kk]):
                        continue
                    pending.popleft()
                    req = cpus[kk]
                    drain = True
                elif k < j:
                    kk = k
                    k += 1
                    arrival_t = place_t = times[kk]
                    req = cpus[kk]
                    # a request above the free-core bound cannot place
                    node = alloc(req) if req <= index.max_free else None
                    if node is None:
                        pending.append((kk, arrival_t))
                        if len(pending) > pending_peak:
                            pending_peak = len(pending)
                        continue
                    drain = False
                else:
                    break
                # the placement block: the arrival just allocated, or
                # queued starts head-first until the head no longer fits
                # (a completion's hand-off arrives with its node set)
                while True:
                    if node is None:
                        if not pending:
                            break
                        kk, arrival_t = pending[0]
                        req = cpus[kk]
                        node = alloc(req) if req <= index.max_free else None
                        if node is None:
                            break
                        pending.popleft()
                    tloc = tenants_local[kk]
                    img = images[kk]
                    st = stats[tloc]
                    node_set = node_images[node]
                    digest = digests[img]
                    if digest in node_set:
                        startup = warm_start_s
                        warm_starts += 1
                    else:
                        held = node_layers[node]
                        layers = layer_digests[img]
                        have = 0
                        for layer in layers:
                            have = have + have + (layer in held)
                        # a pull in a registry window is priced alone, never tabled
                        known = pull_table[img]
                        for window in windows:
                            if window.active_at(place_t):
                                known = {}
                                break
                        price = known.get(have)
                        if price is None:
                            try:
                                price = known[have] = cold_pull(tloc, img, node, place_t)
                            except RetryExhausted:
                                release(node, req)
                                st.failed += 1
                                if drain:
                                    node = None
                                    continue
                                break
                        elif note_pull is None:
                            registry_stats["pulls"] += 1
                        else:
                            note_pull(repos[tloc][img], "v1", price[2], price[1])
                        startup, missing, _cost = price
                        held.update(layers)
                        st.cold_pulls += 1
                        st.pulled_bytes += missing
                        if metric_keys is not None:
                            inc_series(metric_keys[tloc][1])
                        node_set.add(digest)
                    busy = startup + durations[kk]
                    end = place_t + busy
                    if free_slots:
                        slot = free_slots.pop()
                        if armed:
                            slot_node[slot] = node
                            slot_k[slot] = kk
                    else:
                        slot = len(slot_gen)
                        slot_gen.append(0)
                        if armed:
                            slot_node.append(node)
                            slot_k.append(kk)
                    live += 1
                    if live > live_peak:
                        live_peak = live
                    record = (end, seq, slot, slot_gen[slot], node, req, tloc, busy)
                    seq += 1
                    end_epoch = int(end // epoch_len)
                    if end_epoch == epoch:
                        insort(bucket, record, key=_latest_first)
                    else:
                        later = calendar.get(end_epoch)
                        if later is None:
                            calendar[end_epoch] = [record]
                            heappush(cal_heap, end_epoch)
                        else:
                            later.append(record)
                    if end > makespan:
                        makespan = end
                    st.starts += 1
                    wait = place_t - arrival_t
                    if wait > 0.0:
                        st.wait_sum += wait
                        if wait > st.wait_max:
                            st.wait_max = wait
                        hist[bisect_left(WAIT_BUCKETS, wait)] += 1
                    else:
                        hist[0] += 1
                    if metric_keys is not None:
                        inc_series(metric_keys[tloc][0])
                    if not drain:
                        break
                    node = None
            i = j
            self._live = live
            self._live_peak = live_peak
            self._pending_peak = pending_peak
            self._warm_starts = warm_starts
            self._placements = seq
            self._makespan = makespan
            self.result.epochs += 1
            rec = self._rec
            if rec.enabled and env.now >= rec._next_due:
                self._sample_timeseries(rec)
            if prof.enabled:
                depth = (len(env._queue) + len(env._immediate)
                         + live + len(pending))
                if depth > prof.event_queue_peak:
                    prof.event_queue_peak = depth
                if live + len(pending) > prof.live_objects_peak:
                    prof.live_objects_peak = live + len(pending)

    def _sample_timeseries(self, rec: "_timeseries.TimeSeriesRecorder") -> None:
        """One sampler tick, inline at an epoch boundary.

        The fleet pump is its own clock — one simulator event per epoch —
        so instead of a sampler process it ticks the recorder directly
        whenever an epoch crosses the sampling grid.  Costs one predicate
        and one float compare per epoch while sampling is off.  Starts
        and cold pulls are the pump's own counters (placements, and
        placements less warm starts); the other tenant aggregates fold
        in one pass, in tenant order, so ``wait_sum`` adds up in the
        order the report's does.
        """
        reg = run.metrics
        t = rec.sample(self.env.now, reg if reg.enabled else None)
        shard_keys, tenant_keys = self._sample_keys
        stats = self.stats
        starts = self._placements
        cold = starts - self._warm_starts
        pulled = failed = 0
        wait_sum = wait_max = 0.0
        for st in stats:
            pulled += st.pulled_bytes
            failed += st.failed
            wait_sum += st.wait_sum
            if st.wait_max > wait_max:
                wait_max = st.wait_max
        retries = self.result.retry_attempts
        values = (
            len(self._pending), self._live, starts, cold,
            (self._warm_starts / starts) if starts else 0.0, pulled,
            (wait_sum / starts) if starts else 0.0, wait_max, self._quota_total,
            failed, len(self.index.down), self._requeues - self._last_requeues,
            failed - self._last_failed, retries - self._last_retries,
        )
        self._last_requeues = self._requeues
        self._last_failed = failed
        self._last_retries = retries
        record = rec.record_series
        for key, value in zip(shard_keys, values):
            record(key, t, value)
        for (k_starts, k_cold, k_warm, k_wait), st in zip(tenant_keys, stats):
            n = st.starts
            record(k_starts, t, n)
            record(k_cold, t, st.cold_pulls)
            record(k_warm, t, ((n - st.cold_pulls) / n) if n else 0.0)
            record(k_wait, t, (st.wait_sum / n) if n else 0.0)

    def _pull_table(self) -> list[dict[int, tuple[float, int, float]]]:
        """The shard's pull table: per catalog image, a dict from the
        node's layer-presence bits to the pull's ``(startup seconds,
        transferred bytes, registry price)``.

        Blobs never leave the store during a run and the fleet registry
        has no auth or rate limiter, so only a registry fault window can
        change a pull's price.  The pump prices each (image, bits) pair
        once through :meth:`_cold_pull` outside every window and answers
        later such pulls here, counting each in ``stats["pulls"]`` or,
        while traced or metered, through ``registry.note_pull``.
        """
        return [{} for _ in range(len(self.catalog))]

    def _cold_pull(self, tloc: int, img: int, node: int, t: float) -> tuple:
        """Price a cold pull through the real registry, retrying while a
        fault window refuses it: returns the start-up seconds, the bytes
        transferred and the registry's price of the pull that succeeded.
        The caller does the accounting (node layers, tenant counters,
        the cold-pull metric)."""
        catalog = self.catalog
        node_layers = self.node_layers[node]
        missing = 0
        for digest, size in zip(catalog.layer_digests[img], catalog.layer_sizes[img]):
            if digest not in node_layers:
                missing += size
        repo = self._repos[tloc][img]
        policy = self._retry
        attempts = 0
        elapsed = 0.0
        while True:
            attempts += 1
            try:
                _image, cost = self.registry.pull_image(
                    repo, "v1", now=t + elapsed, have_digests=node_layers,
                )
                break
            except RegistryUnavailable as exc:
                elapsed += exc.cost
                self.result.retry_attempts += 1
                run.faults.note_retry("fleet.registry")
                if policy.gives_up(attempts, elapsed):
                    raise RetryExhausted("fleet.registry", attempts, elapsed, exc) from exc
                delay = policy.delay(attempts - 1)
                if exc.retry_after is not None and exc.retry_after > delay:
                    delay = exc.retry_after
                elapsed += delay
        return (elapsed + cost + missing * self._inv_unpack + self._warm_start_s,
                missing, cost)


def run_fleet_shard(
    config: FleetConfig, shard: int, plan_json: str | None = None
) -> FleetShardResult:
    """Build and run one shard in a fresh environment (the cell body).

    ``plan_json`` arms a :class:`FaultPlan` inside this shard: the
    pull-style window events go to the current run's injector (the cold
    pull path polls it through the registry), while the push-style
    ``NODE_CRASH`` events are consumed by the engine's own edge stream —
    the injector is armed with the pull subset only, so its driver
    process never perturbs the pump's event schedule.
    """
    env = Environment()
    plan = FaultPlan.from_json(plan_json) if plan_json else None
    if plan is not None:
        pull_plan = FaultPlan(
            [e for e in plan if e.kind not in PUSH_KINDS], seed=plan.seed
        )
        run.faults.arm(pull_plan, env)
    try:
        engine = FleetShardEngine(env, config, shard, plan=plan)
        result = engine.run()
        if plan is not None:
            result.injected = dict(run.faults.injected_counts)
            result.injected_at = dict(run.faults.injected_at)
            result.fault_retries = dict(run.faults.retry_counts)
        return result
    finally:
        if plan is not None:
            run.faults.disarm()


def fleet_cells(config: FleetConfig, plan: FaultPlan | None = None) -> list:
    """The fixed cell partition for ``config`` (independent of --jobs).

    ``plan`` rides along as compact JSON in every cell, so worker
    processes arm byte-identical fault schedules."""
    from repro.shard.cells import FleetCell

    config_json = config.to_json()
    plan_json = plan.to_json(indent=None) if plan is not None else None
    return [
        FleetCell(config_json=config_json, shard=shard, plan_json=plan_json)
        for shard in range(config.effective_shards)
    ]


def run_fleet(
    config: FleetConfig,
    jobs: int = 1,
    sample_interval: float | None = None,
    plan: FaultPlan | None = None,
) -> FleetResult:
    """Run the whole fleet through the shard runner and merge.

    Each shard records what the current run's :class:`~repro.run.ObsConfig`
    selects; ``sample_interval`` (virtual seconds) overrides its
    time-series sampling interval.  The runner merges the sampled rings
    into the parent recorder in cell-index order, so ``--jobs N``
    exports are byte-identical to serial.  ``plan`` delivers a fault
    plan into every shard (see :func:`run_fleet_shard`).
    """
    from repro.shard import run_cells

    obs = run.obs
    if sample_interval is not None:
        obs = dataclasses.replace(obs, timeseries=sample_interval)
    result = run_cells(fleet_cells(config, plan=plan), jobs=jobs, obs=obs)
    return merge_shard_results(result.values(), config)


def score_fleet_slo(
    result: FleetResult,
    rules=None,
    rec: "_timeseries.TimeSeriesRecorder | None" = None,
):
    """Score a sampled fleet run against SLO rules (the chaos scorecard).

    Evaluates ``rules`` (default :func:`repro.obs.slo.default_fleet_rules`)
    over the recorder's ``fleet.*`` series up to the run's makespan, and
    wires per-fault-kind detection latency from the merged
    ``injected_at`` map the way ``run_chaos`` does.  Returns a
    :class:`repro.obs.slo.ScorecardReport`; the caller owns recorder
    setup (sampling must have been enabled for the run).
    """
    from repro.obs import slo as _slo

    if rules is None:
        rules = _slo.default_fleet_rules()
    if rec is None:
        rec = run.recorder
    evaluation = _slo.evaluate(rules, rec, end_time=result.makespan)
    # alert timestamps are snapped to the sampling grid (floor), so snap
    # the injection instants the same way — otherwise a fault injected
    # mid-tick can "pre-date" the very alert that detected it and the
    # latency table silently attributes the next, unrelated fire
    interval = rec.interval
    injected_at = {
        kind: math.floor(at / interval) * interval
        for kind, at in result.injected_at.items()
    }
    detection = _slo.detection_latencies(injected_at, evaluation)
    return _slo.ScorecardReport.build(
        scenario="fleet", ruleset=rules, evaluation=evaluation, rec=rec,
        seed=result.config.seed, detection=detection,
    )


# -- reporting ----------------------------------------------------------------

FLEET_REPORT_SCHEMA = "repro-fleet-report/2"

#: the per-tenant row of ``repro-fleet-report/2``: column name, leaf type
_TENANT_COLUMNS = (
    ("tenant", int), ("starts", int), ("completions", int), ("failed", int),
    ("cold_pulls", int), ("pulled_bytes", int), ("wait_sum_s", float),
    ("wait_max_s", float), ("cpu_seconds", float),
)


def fleet_report_document(result: FleetResult) -> dict:
    """JSON-ready report (schema ``repro-fleet-report/2``)."""
    tenants = [
        [gid, *map(_json_num, stats)]
        for gid, stats in sorted(result.tenants.items())
    ]
    return {
        "schema": FLEET_REPORT_SCHEMA,
        "config": json.loads(result.config.to_json()),
        "summary": {
            "shards": result.shards,
            "starts": result.starts,
            "completions": result.completions,
            "failed": result.failed,
            "warm_starts": result.warm_starts,
            "warm_rate": round(result.warm_rate, 6),
            "cold_pulls": result.cold_pulls,
            "retry_attempts": result.retry_attempts,
            "pulled_bytes": result.pulled_bytes,
            "demand_bytes": result.demand_bytes,
            "bytes_saved_ratio": round(result.bytes_saved_ratio, 6),
            "pending_peak": result.pending_peak,
            "live_peak": result.live_peak,
            "mean_wait_s": round(result.mean_wait, 6),
            "max_wait_s": round(result.wait_max, 6),
            "makespan_s": round(result.makespan, 6),
            "crashes": result.crashes,
            "requeues": result.requeues,
        },
        "faults": {
            "injected": {
                kind: result.injected[kind] for kind in sorted(result.injected)
            },
            "first_injected_at": {
                kind: round(result.injected_at[kind], 6)
                for kind in sorted(result.injected_at)
            },
            "retries": {
                name: result.fault_retries[name]
                for name in sorted(result.fault_retries)
            },
        },
        "registry": {
            "pushes": result.registry_pushes,
            "pulls": result.registry_pulls,
            "blob_uploads_skipped": result.blob_uploads_skipped,
            "stored_bytes": result.stored_bytes,
            "quota_used_bytes": result.quota_used,
        },
        "wait_histogram": {
            "bounds_s": list(WAIT_BUCKETS),
            "counts": list(result.wait_hist),
        },
        "leaks": list(result.leaks),
        "tenant_columns": [name for name, _leaf in _TENANT_COLUMNS],
        "tenants": tenants,
    }


#: the exact shape of ``repro-fleet-report/2`` (:mod:`repro.obs.shape`
#: has the notation); tenant rows are checked column by column
_FLEET_REPORT = {
    "schema": str,
    "config": dict,
    "summary": {
        "shards": int, "starts": int, "completions": int, "failed": int,
        "warm_starts": int, "warm_rate": float, "cold_pulls": int,
        "retry_attempts": int, "pulled_bytes": int, "demand_bytes": int,
        "bytes_saved_ratio": float, "pending_peak": int, "live_peak": int,
        "mean_wait_s": float, "max_wait_s": float, "makespan_s": float,
        "crashes": int, "requeues": int,
    },
    "faults": {
        "injected": MapOf(int), "first_injected_at": MapOf(float), "retries": MapOf(int),
    },
    "registry": {
        "pushes": int, "pulls": int, "blob_uploads_skipped": int,
        "stored_bytes": int, "quota_used_bytes": int,
    },
    "wait_histogram": {"bounds_s": [float], "counts": [int]},
    "leaks": [str],
    "tenant_columns": [str],
    "tenants": [list],
}


def config_problems(config: dict) -> list[str]:
    """Why a report's ``config`` block is not a :class:`FleetConfig`
    that reads back to itself (empty when it is)."""
    try:
        parsed = FleetConfig.from_json(json.dumps(config))
    except (TypeError, ValueError) as exc:
        return [f"report.config: {exc}"]
    if json.loads(parsed.to_json()) != config:
        return ["report.config: does not round-trip through FleetConfig"]
    return []


def check_fleet_report(doc: object) -> list[str]:
    """Strict shape check of a ``repro-fleet-report/2`` document: exact
    keys at every level, exact leaf types (tenant rows column by
    column), the schema string, a ``config`` that
    :meth:`FleetConfig.from_json` reads back to itself, and a ``faults``
    section whose first-injection times cover exactly the injected
    kinds.  Returns the problems found (empty when well formed), so a
    writer that changes the document without bumping the schema version
    fails here."""
    problems = shape_problems(doc, _FLEET_REPORT, "report")
    if problems:
        return problems
    assert isinstance(doc, dict)
    if doc["schema"] != FLEET_REPORT_SCHEMA:
        problems.append(
            f"report.schema: expected {FLEET_REPORT_SCHEMA!r}, got {doc['schema']!r}"
        )
    problems += config_problems(doc["config"])
    faults = doc["faults"]
    if sorted(faults["first_injected_at"]) != sorted(faults["injected"]):
        problems.append("report.faults: first_injected_at kinds differ from injected kinds")
    problems += [
        f"report.faults.injected.{kind}: expected a positive count, got {count}"
        for kind, count in faults["injected"].items() if count < 1
    ]
    hist = doc["wait_histogram"]
    if len(hist["counts"]) != len(hist["bounds_s"]) + 1:
        problems.append("report.wait_histogram: expected one count per bound plus overflow")
    columns = [name for name, _leaf in _TENANT_COLUMNS]
    if doc["tenant_columns"] != columns:
        problems.append(f"report.tenant_columns: expected {columns}")
    for i, row in enumerate(doc["tenants"]):
        if len(row) != len(_TENANT_COLUMNS):
            problems.append(f"report.tenants[{i}]: expected {len(_TENANT_COLUMNS)} columns")
            continue
        for (name, leaf), value in zip(_TENANT_COLUMNS, row):
            problems += shape_problems(value, leaf, f"report.tenants[{i}].{name}")
    return problems


def check_fleet_report_file(path: str) -> int:
    """Check a fleet report file; print problems; return an exit code."""
    return check_file(path, check_fleet_report)


def _json_num(value):
    return round(value, 6) if isinstance(value, float) else value


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if value < 1000.0 or unit == "PB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1000.0
    return f"{value:.1f} PB"


def render_fleet_summary(result: FleetResult, top: int = 8) -> str:
    """Deterministic human summary (identical for --jobs 1 and N)."""
    cfg = result.config
    lines = [
        f"fleet: {cfg.nodes} nodes / {cfg.tenants} tenants / "
        f"{cfg.starts} starts ({result.shards} cells, zipf s={cfg.zipf_s}, "
        f"day={cfg.day:.0f}s)",
        f"  completed:  {result.completions}/{result.starts} "
        f"(failed {result.failed})   makespan {result.makespan:.1f}s",
        f"  image cache: {result.warm_rate:.1%} warm starts, "
        f"{result.cold_pulls} cold pulls, pulled {_human_bytes(result.pulled_bytes)} "
        f"({result.bytes_saved_ratio:.1%} saved vs cache-free "
        f"{_human_bytes(result.demand_bytes)})",
        f"  registry:   {result.registry_pushes} pushes "
        f"({result.blob_uploads_skipped} blob uploads deduped), "
        f"{result.registry_pulls} pulls, stores {_human_bytes(result.stored_bytes)}, "
        f"quota charged {_human_bytes(result.quota_used)}",
        f"  queueing:   peak pending {result.pending_peak}, peak live "
        f"{result.live_peak}, mean wait {result.mean_wait:.2f}s, "
        f"max wait {result.wait_max:.1f}s",
    ]
    if result.crashes or result.injected:
        injected = ", ".join(
            f"{kind}×{count}" for kind, count in sorted(result.injected.items())
        )
        lines.append(
            f"  chaos:      {result.crashes} node crash(es), "
            f"{result.requeues} requeued start(s), injected {injected or 'none'}"
        )
    if result.retry_attempts:
        lines.append(f"  retries:    {result.retry_attempts} registry retries")
    if result.leaks:
        lines.append(f"  LEAKS:      {len(result.leaks)}")
        lines.extend(f"    - {leak}" for leak in result.leaks)
    else:
        lines.append("  leaks:      none")
    ranked = sorted(result.tenants.items(), key=lambda kv: (-kv[1][0], kv[0]))
    lines.append(f"  top tenants ({min(top, len(ranked))} of {len(ranked)}):")
    for gid, stats in ranked[:top]:
        starts, completions, _failed, cold, pulled = stats[:5]
        lines.append(
            f"    t{gid:05}  {starts:>8} starts  {completions:>8} done  "
            f"{cold:>6} cold pulls  {_human_bytes(pulled):>10}"
        )
    return "\n".join(lines)
