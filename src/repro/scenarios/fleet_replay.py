"""Fleet → scenario bridge: replay fleet traces through the §6.5 stack.

:mod:`repro.workload.fleet` models fleet-shape load (diurnal Poisson
arrivals, Zipf tenants and images) against an *abstracted* capacity and
cache model.  This module feeds the **same traces** — byte-identical
arrays from :func:`repro.workload.fleet.generate_shard_trace` — through
the real control plane instead: every start becomes a Pod created on
the apiserver, scheduled by :class:`~repro.k8s.scheduler.K8sScheduler`,
started by a rootless :class:`~repro.k8s.kubelet.Kubelet` inside a WLM
allocation, pulling its tenant's image through the engine and the site
registry.  That is the §6.5 architecture under §4's workload.

Shards are independent sub-clusters (the fleet's tenant partitions,
each with the shard's share of nodes and starts), executed as
:class:`~repro.shard.cells.FleetReplayCell` values by the shard runner
— ``--jobs N`` output is byte-identical to serial.

The churn path is pooled: a harvested (terminal) pod is deleted from
the apiserver and its record recycled for a later arrival — only the
:class:`~repro.k8s.objects.ObjectMeta` is fresh per logical pod.  A
finished pod gives back everything its start took: the kubelet's one
teardown path (CRI stop → remove) drops the container's runtime record
and its conmon monitor, reaps the container and monitor processes out
of the node kernel's process table, their parent's children and their
cgroup, and removes the emptied pod cgroup.  So a 100k-start replay
holds O(live pods), not O(starts), objects, and the post-run audit
(:func:`~repro.faults.leaks.find_leaks`) reports any of that state a
finished pod still holds as a leak.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import typing as _t

from repro.k8s.objects import (
    ContainerSpec,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
    ResourceRequests,
)
from repro.k8s.apiserver import WatchEvent, WatchEventType
from repro.obs import timeseries as _timeseries
from repro.obs.shape import check_file, shape_problems
from repro.run import run
from repro.scenarios.kubelet_in_allocation import KubeletInAllocationScenario
from repro.sim import Environment
from repro.workload.fleet import (
    FleetConfig,
    ImageCatalog,
    config_problems,
    generate_shard_trace,
)


@dataclasses.dataclass
class FleetReplayShardResult:
    """One shard's replay outcome (plain picklable fields)."""

    shard: int
    nodes: int = 0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: submission -> RUNNING latency, accumulated
    wait_sum: float = 0.0
    wait_max: float = 0.0
    #: per-allocation (steady-state) provision time of the shard cluster
    provision_time: float = 0.0
    #: first submission -> last pod end
    makespan: float = 0.0
    binds: int = 0
    unschedulable_events: int = 0
    pulls: int = 0
    coalesced_pulls: int = 0
    leaks: list[str] = dataclasses.field(default_factory=list)

    @property
    def mean_wait(self) -> float:
        started = self.completed + self.failed
        return self.wait_sum / started if started else 0.0


class FleetReplayScenario:
    """One fleet shard replayed through the real §6.5 control plane.

    Builds a :class:`KubeletInAllocationScenario` sized to the shard's
    node share, mirrors the shard's tenants' image catalogs into the
    site registry, then pumps the shard's arrival trace as timed Pod
    creations and harvests terminal pods back into the record pool.
    """

    name = "fleet-replay"
    section = "§6.5 under the §4 fleet workload"

    def __init__(self, env: Environment, config: FleetConfig, shard: int):
        self.env = env
        self.config = config
        self.shard = shard
        self.tenant_ids = config.shard_tenant_ids(shard)
        self.n_starts = config.shard_start_counts()[shard]
        n_nodes = max(1, config.shard_node_count(shard))
        self.scenario = KubeletInAllocationScenario(env, n_nodes=n_nodes, seed=config.seed)
        self.api = self.scenario.k3s.api
        self.trace = generate_shard_trace(
            config, shard, n_starts=self.n_starts, tenant_ids=self.tenant_ids
        )
        self.catalog = ImageCatalog.build(config.images)
        #: image refs by (local tenant index, image index)
        self._refs: list[list[str]] = []
        for gid in self.tenant_ids:
            refs = []
            for img in range(len(self.catalog)):
                repo = f"t{gid:05}/img{img:03}"
                self.scenario.registry.push_image(repo, "v1", self.catalog.images[img])
                refs.append(f"registry.site.local/{repo}:v1")
            self._refs.append(refs)
        # -- pooled pod records (recycled after harvest) -------------------
        self._free: list[Pod] = []
        self._live_uids: set[str] = set()
        self._seq = 0
        self._harvested = 0
        self._base = 0.0
        self._done = env.event()
        self.result = FleetReplayShardResult(shard=shard, nodes=n_nodes)

    # -- the run -------------------------------------------------------------
    def run(self) -> FleetReplayShardResult:
        env = self.env
        rec = run.recorder
        if rec.enabled:
            rec.add_probe(self._sample_timeseries)
            registry = run.metrics if run.metrics.enabled else None
            _timeseries.install_sampler(env, registry)
        ready = self.scenario.provision()
        env.run(until=ready)
        self.result.provision_time = self.scenario.steady_state_provision_time
        self._base = env.now
        # Harvest watch: unkeyed, so it sees every Pod event; the phase
        # check keeps it to one dict-free branch per event.
        self.api.watch("Pod", self._on_pod_event, replay_existing=False)
        if self.n_starts:
            env.process(self._pump(), name=f"replay-pump-{self.shard}")
            env.run(until=self._done)
        if self._harvested < self.n_starts:
            self.result.leaks.append(
                f"{self.n_starts - self._harvested} pods never reached a "
                "terminal phase"
            )
        self.scenario.teardown()
        env.run(until=env.now + 100.0)
        self._collect_stats()
        return self.result

    def _sample_timeseries(self, t: float) -> None:
        """Probe: per-shard replay state the registry never sees."""
        rec = run.recorder
        shard = f"s{self.shard}"
        res = self.result
        rec.record("replay.inflight", t, float(len(self._live_uids)), shard=shard)
        rec.record("replay.submitted_total", t, float(res.submitted), shard=shard)
        rec.record("replay.harvested_total", t, float(self._harvested), shard=shard)
        rec.record("replay.wait_max", t, res.wait_max, shard=shard)

    def _collect_stats(self) -> None:
        from repro.faults.leaks import find_leaks

        res = self.result
        for engine in self.scenario.engines.values():
            res.pulls += engine.stats["pulls"]
            res.coalesced_pulls += engine.stats["coalesced_pulls"]
        res.leaks.extend(find_leaks(self.scenario))
        scheduler = self.scenario.k3s.scheduler
        if scheduler is not None:
            res.binds = scheduler.stats["scheduled"]
            res.unschedulable_events = scheduler.stats["unschedulable_events"]
        res.wait_sum = round(res.wait_sum, 6)
        res.wait_max = round(res.wait_max, 6)
        res.provision_time = round(res.provision_time, 6)
        res.makespan = round(res.makespan, 6)

    # -- submission ----------------------------------------------------------
    def _pump(self):
        base = self._base
        for k in range(self.n_starts):
            at = base + self.trace.times[k]
            if at > self.env.now:
                yield self.env.sleep(at - self.env.now)
            self._submit_one(k)

    def _next_pod(self) -> Pod:
        if self._free:
            pod = self._free.pop()
            pod.phase = PodPhase.PENDING
            pod.node_name = None
            pod.start_time = None
            pod.end_time = None
            pod.message = ""
            return pod
        return Pod(
            metadata=ObjectMeta(name="replay-blank"),
            spec=PodSpec(containers=[ContainerSpec(name="main", image="")]),
        )

    def _submit_one(self, k: int) -> None:
        trace = self.trace
        pod = self._next_pod()
        self._seq += 1
        # A fresh ObjectMeta per logical pod: uid/resource-version draws
        # stay deterministic and recycled records can't alias in the
        # apiserver store.
        pod.metadata = ObjectMeta(name=f"r{self._seq:06}")
        cspec = pod.spec.containers[0]
        cspec.image = self._refs[trace.tenants_local[k]][trace.images[k]]
        cspec.resources = ResourceRequests(cpu=float(trace.cpus[k]))
        pod.spec.duration = trace.durations[k]
        pod.spec.user_uid = self.scenario.allocation_user
        pod.spec.node_selector["hpc.allocation"] = str(self.scenario.job.job_id)
        pod._submitted_at = self.env.now  # type: ignore[attr-defined]
        self._live_uids.add(pod.metadata.uid)
        self.result.submitted += 1
        self.api.create("Pod", pod)

    # -- harvest -------------------------------------------------------------
    def _on_pod_event(self, event: WatchEvent) -> None:
        if event.type is not WatchEventType.MODIFIED:
            return
        pod = event.obj
        if not isinstance(pod, Pod) or pod.phase not in (
            PodPhase.SUCCEEDED, PodPhase.FAILED
        ):
            return
        uid = pod.metadata.uid
        if uid not in self._live_uids:
            return
        self._live_uids.discard(uid)
        res = self.result
        if pod.phase is PodPhase.SUCCEEDED:
            res.completed += 1
        else:
            res.failed += 1
        submitted_at = getattr(pod, "_submitted_at", None)
        if submitted_at is not None and pod.start_time is not None:
            wait = pod.start_time - submitted_at
            res.wait_sum += wait
            if wait > res.wait_max:
                res.wait_max = wait
        end = pod.end_time if pod.end_time is not None else self.env.now
        if end - self._base > res.makespan:
            res.makespan = end - self._base
        # Retire the record: off the apiserver (the store stays O(live
        # pods)), its finished containers dropped, back into the pool for
        # a later arrival.
        self.api.delete("Pod", pod.metadata.name)
        pod.container_results = []
        self._free.append(pod)
        self._harvested += 1
        if self._harvested == self.n_starts and not self._done.triggered:
            self._done.succeed(self.env.now)


def run_replay_shard(
    config: FleetConfig, shard: int, plan_json: str | None = None
) -> FleetReplayShardResult:
    """Run one replay shard in a fresh environment (cell entry point).

    ``plan_json`` arms the plan's *pull-style* window events (registry
    outages/429/slow-blob hit the real engine pull path).  Push-style
    node crashes are dropped here: fleet ``fleet-node-NNNNN`` targets
    don't name the replay sub-cluster's WLM nodes, so delivering them
    would be a silent no-op pretending to be coverage.
    """
    from repro.faults.plan import PUSH_KINDS, FaultPlan

    env = Environment()
    plan = FaultPlan.from_json(plan_json) if plan_json else None
    if plan is not None:
        pull_plan = FaultPlan(
            [e for e in plan if e.kind not in PUSH_KINDS], seed=plan.seed
        )
        run.faults.arm(pull_plan, env)
    try:
        result = FleetReplayScenario(env, config, shard).run()
    finally:
        if plan is not None:
            run.faults.disarm()
    # The finished shard's simulation (environment, processes, pods,
    # node kernels) is one cyclic graph: free it here, so that shards
    # run one after another in a process never hold two at once.
    del env
    gc.collect()
    return result


# -- fleet-level orchestration ------------------------------------------------

@dataclasses.dataclass
class FleetReplayResult:
    """Merged view over all shards."""

    config: FleetConfig
    shards: list[FleetReplayShardResult]

    @property
    def submitted(self) -> int:
        return sum(s.submitted for s in self.shards)

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.shards)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.shards)

    @property
    def mean_wait(self) -> float:
        done = self.completed + self.failed
        return sum(s.wait_sum for s in self.shards) / done if done else 0.0

    @property
    def max_wait(self) -> float:
        return max((s.wait_max for s in self.shards), default=0.0)

    @property
    def makespan(self) -> float:
        return max((s.makespan for s in self.shards), default=0.0)

    @property
    def pulls(self) -> int:
        return sum(s.pulls for s in self.shards)

    @property
    def coalesced_pulls(self) -> int:
        return sum(s.coalesced_pulls for s in self.shards)

    @property
    def binds(self) -> int:
        return sum(s.binds for s in self.shards)

    @property
    def leaks(self) -> list[str]:
        out: list[str] = []
        for s in self.shards:
            out.extend(f"shard {s.shard}: {leak}" for leak in s.leaks)
        return out


def replay_cells(config: FleetConfig, plan=None) -> list:
    from repro.shard.cells import FleetReplayCell

    text = config.to_json()
    plan_json = plan.to_json(indent=None) if plan is not None else None
    return [
        FleetReplayCell(config_json=text, shard=shard, plan_json=plan_json)
        for shard in range(config.effective_shards)
    ]


def run_fleet_replay(
    config: FleetConfig, jobs: int = 1, plan=None
) -> FleetReplayResult:
    """Run every shard through the shard runner and merge; each shard
    records what the current run's :class:`~repro.run.ObsConfig`
    selects.  ``plan`` delivers a fault plan's pull windows (see
    :func:`run_replay_shard`)."""
    from repro.shard import run_cells

    result = run_cells(replay_cells(config, plan=plan), jobs=jobs)
    return FleetReplayResult(config=config, shards=result.values())


# -- reporting ----------------------------------------------------------------

REPLAY_REPORT_SCHEMA = "repro-fleet-replay-report/1"


def replay_report_document(result: FleetReplayResult) -> dict:
    """JSON document (schema ``repro-fleet-replay-report/1``)."""
    return {
        "schema": REPLAY_REPORT_SCHEMA,
        "config": json.loads(result.config.to_json()),
        "totals": {
            "submitted": result.submitted,
            "completed": result.completed,
            "failed": result.failed,
            "mean_wait_s": round(result.mean_wait, 6),
            "max_wait_s": round(result.max_wait, 6),
            "makespan_s": round(result.makespan, 6),
            "binds": result.binds,
            "pulls": result.pulls,
            "coalesced_pulls": result.coalesced_pulls,
        },
        "shards": [
            {
                "shard": s.shard,
                "nodes": s.nodes,
                "submitted": s.submitted,
                "completed": s.completed,
                "failed": s.failed,
                "mean_wait_s": round(s.mean_wait, 6),
                "max_wait_s": s.wait_max,
                "provision_s": s.provision_time,
                "makespan_s": s.makespan,
                "binds": s.binds,
                "unschedulable_events": s.unschedulable_events,
                "pulls": s.pulls,
                "coalesced_pulls": s.coalesced_pulls,
            }
            for s in result.shards
        ],
        "leaks": result.leaks,
    }


#: the exact shape of ``repro-fleet-replay-report/1``
#: (:mod:`repro.obs.shape` has the notation)
_REPLAY_TOTALS = {
    "submitted": int, "completed": int, "failed": int,
    "mean_wait_s": float, "max_wait_s": float, "makespan_s": float,
    "binds": int, "pulls": int, "coalesced_pulls": int,
}
_REPLAY_SHARD = {
    "shard": int, "nodes": int, "submitted": int, "completed": int,
    "failed": int, "mean_wait_s": float, "max_wait_s": float,
    "provision_s": float, "makespan_s": float, "binds": int,
    "unschedulable_events": int, "pulls": int, "coalesced_pulls": int,
}
_REPLAY_REPORT = {
    "schema": str, "config": dict, "totals": _REPLAY_TOTALS,
    "shards": [_REPLAY_SHARD], "leaks": [str],
}


def check_replay_report(doc: object) -> list[str]:
    """Strict shape check of a ``repro-fleet-replay-report/1`` document:
    exact keys at every level, exact leaf types, the schema string, and
    a ``config`` that :meth:`FleetConfig.from_json` reads back to itself.
    Returns the problems found (empty when the document is well formed),
    so a writer that changes the document without bumping the schema
    version fails here."""
    problems = shape_problems(doc, _REPLAY_REPORT, "report")
    if problems:
        return problems
    assert isinstance(doc, dict)
    if doc["schema"] != REPLAY_REPORT_SCHEMA:
        problems.append(
            f"report.schema: expected {REPLAY_REPORT_SCHEMA!r}, got {doc['schema']!r}"
        )
    return problems + config_problems(doc["config"])


def check_replay_report_file(path: str) -> int:
    """Check a replay report file; print problems; return an exit code."""
    return check_file(path, check_replay_report)


def render_replay_summary(result: FleetReplayResult) -> str:
    config = result.config
    lines = [
        "fleet replay — §6.5 stack under the §4 fleet workload",
        f"  config:     {config.tenants} tenants, {config.nodes} nodes, "
        f"{config.starts} starts, {config.effective_shards} shards",
        f"  pods:       {result.completed}/{result.submitted} completed"
        + (f", {result.failed} failed" if result.failed else ""),
        f"  wait:       mean {result.mean_wait:.3f}s, max {result.max_wait:.3f}s",
        f"  makespan:   {result.makespan:.1f}s",
        f"  pulls:      {result.pulls} ({result.coalesced_pulls} coalesced), "
        f"{result.binds} binds",
    ]
    if result.leaks:
        lines.append(f"  LEAKS:      {len(result.leaks)}")
        lines.extend(f"    - {leak}" for leak in result.leaks)
    else:
        lines.append("  leaks:      none")
    return "\n".join(lines)
