"""The benchmark's four workloads.

Each workload is one function ``fn(seed, size, clock) -> Outcome`` that
drives the library through its public entry points at a fixed shape,
from a fresh process.  ``size`` is ``"full"`` (the measured shape) or
``"tiny"`` (the self-test shape); ``clock`` is the :class:`SetupClock`
that set-up work outside the timed constructors reports to.  Every input is a pure function of
``seed``: the fleet config seed, the fault-plan seed and the chaos seed
range all derive from it, so one seed always gives the same inputs.

An :class:`Outcome` carries what the run produced in virtual time (the
documents the digest is taken over), the leak audit, and the counts of
attempted and failed operations behind ``success_rate``.  Host time is
measured by the caller around the call; set-up time by
:class:`SetupClock`, which times the constructors that run before the
simulated clock starts.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time

from repro.faults.chaos import chaos_report_document
from repro.fs import FileTree, SharedFS, pack_squash
from repro.fs.drivers import mount_squash
from repro.fs.perf import PROFILES
from repro.obs import timeseries as _timeseries
from repro.scenarios.evaluate import summary_rows
from repro.scenarios.fleet_replay import (
    FleetReplayScenario,
    replay_report_document,
    run_fleet_replay,
)
from repro.shard import WarmSnapshot, chaos_seed_sweep, run_cells, scenario_matrix
from repro.sim import Environment
from repro.workload.fleet import (
    FleetConfig,
    FleetShardEngine,
    fleet_report_document,
    generate_fleet_plan,
    run_fleet,
    score_fleet_slo,
)

#: per-workload shapes; "tiny" is the self-test size
SHAPES = {
    "fleet_steady": {
        "full": dict(tenants=2000, nodes=10_000, shards=8, day=3600.0, starts=400_000),
        "tiny": dict(tenants=40, nodes=200, shards=8, day=3600.0, starts=2_000),
    },
    "fleet_chaos_slo": {
        "full": dict(tenants=256, nodes=2000, shards=4, day=3600.0, starts=600_000),
        "tiny": dict(tenants=16, nodes=100, shards=4, day=3600.0, starts=3_000),
    },
    "replay_control_plane": {
        "full": dict(tenants=64, nodes=256, shards=4, starts=8_000),
        "tiny": dict(tenants=8, nodes=16, shards=2, starts=100),
    },
    "paper_sweeps": {
        "full": dict(chaos_seeds=64, jobs=2, node_counts=(1, 4, 16, 64, 256, 1024)),
        "tiny": dict(chaos_seeds=2, jobs=2, node_counts=(1, 4)),
    },
}

#: fleet time-series sampling interval (virtual seconds)
SAMPLE_INTERVAL_S = 5.0

#: the §6.5 scenario the paper sweep's chaos half runs under fault plans
CHAOS_SCENARIO = "kubelet-in-allocation"

#: §3.2 small-file app: file count and size
SMALLFILE_FILES = 1500
SMALLFILE_SIZE = 3_000


@dataclasses.dataclass
class Outcome:
    """What one workload run produced."""

    #: simulated container starts completed (fleet starts, replay pods,
    #: scenario and chaos pods, §3.2 node launches)
    starts: int
    #: operations attempted and failed or unfinished (leaks included)
    attempted: int
    failed: int
    #: virtual-time documents the output digest is taken over
    outputs: dict
    leaks: list[str]
    #: result-derived per-layer counts (exact, machine-independent);
    #: a count the workload's results do not have reads 0
    counts: dict[str, float] = dataclasses.field(default_factory=dict)

    COUNTS = ("faults.injected", "faults.requeues", "faults.failed_ops",
              "k8s.scheduler.bind_ratio", "engines.pull.coalesced_ratio")

    def __post_init__(self) -> None:
        self.counts = {key: self.counts.get(key, 0) for key in self.COUNTS}

    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


class SetupClock:
    """Host seconds spent in set-up constructors (before the simulated
    clock starts), accumulated from perf_counter pairs around each call.
    Installed for every run, traced or not; it costs two clock reads per
    constructor call, a handful per run."""

    #: (owner, attribute) pairs whose calls count as set-up
    ENTRY_POINTS = (
        (FleetShardEngine, "__init__"),
        (FleetReplayScenario, "__init__"),
        (WarmSnapshot, "for_scenario_prefix"),
    )

    def __init__(self) -> None:
        self.seconds = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def add(self, seconds: float) -> None:
        self.seconds += seconds

    def install(self) -> None:
        for owner, name in self.ENTRY_POINTS:
            raw = owner.__dict__[name]
            self._saved.append((owner, name, raw))
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = self._timed(fn)
            setattr(owner, name, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _timed(self, fn):
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.seconds += time.perf_counter() - t0

        return wrapper


def _fleet_config(shape: dict, seed: int) -> FleetConfig:
    return FleetConfig(seed=seed, **shape)


def _fleet_outcome(result, outputs: dict, armed: bool) -> Outcome:
    """Starts that ran out of registry retries are an outcome of the
    armed fault plan (counted in ``faults.failed_ops``, and checked by
    the digest); without a plan they are failures like unfinished ones."""
    config = result.config
    by_faults = result.failed if armed else 0
    unfinished = config.starts - result.completions - by_faults
    return Outcome(
        starts=result.completions,
        attempted=config.starts,
        failed=unfinished + len(result.leaks),
        outputs=outputs,
        leaks=list(result.leaks),
        counts={
            "faults.injected": sum(result.injected.values()),
            "faults.requeues": result.requeues,
            "faults.failed_ops": by_faults,
        },
    )


def fleet_steady(seed: int, size: str, clock: SetupClock) -> Outcome:
    """The flagship fleet shape: no faults, no sampling, jobs=1."""
    config = _fleet_config(SHAPES["fleet_steady"][size], seed)
    result = run_fleet(config, jobs=1)
    return _fleet_outcome(
        result, {"fleet_report": fleet_report_document(result)}, armed=False
    )


def fleet_chaos_slo(seed: int, size: str, clock: SetupClock) -> Outcome:
    """A mid-size fleet under a seeded fault plan, sampled every 5 s and
    scored against the default fleet SLO rules."""
    config = _fleet_config(SHAPES["fleet_chaos_slo"][size], seed)
    t0 = time.perf_counter()
    plan = generate_fleet_plan(config, seed=seed)
    clock.add(time.perf_counter() - t0)
    recorder = _timeseries.recorder
    recorder.reset()
    try:
        result = run_fleet(
            config, jobs=1, sample_interval=SAMPLE_INTERVAL_S, plan=plan
        )
        # the cell merge appends points but not the interval; pin it the
        # way the fleet CLI verb does before scoring
        recorder.enable(interval=SAMPLE_INTERVAL_S, reset=False)
        scorecard = score_fleet_slo(result)
    finally:
        _timeseries.disable()
        recorder.reset()
    return _fleet_outcome(result, {
        "fleet_report": fleet_report_document(result),
        "slo_scorecard": json.loads(scorecard.to_json()),
    }, armed=True)


def replay_control_plane(seed: int, size: str, clock: SetupClock) -> Outcome:
    """Fleet traces replayed as Pods through the §6.5 control plane."""
    config = _fleet_config(SHAPES["replay_control_plane"][size], seed)
    result = run_fleet_replay(config, jobs=1)
    unfinished = config.starts - result.completed - result.failed
    binds = result.binds
    unschedulable = sum(s.unschedulable_events for s in result.shards)
    pulls = result.pulls
    return Outcome(
        starts=result.completed,
        attempted=config.starts,
        failed=result.failed + unfinished + len(result.leaks),
        outputs={"replay_report": replay_report_document(result)},
        leaks=list(result.leaks),
        counts={
            "k8s.scheduler.bind_ratio": (
                binds / (binds + unschedulable) if binds + unschedulable else 0.0
            ),
            "engines.pull.coalesced_ratio": (
                result.coalesced_pulls / pulls if pulls else 0.0
            ),
        },
    )


# -- §3.2 small-file startup sweep ---------------------------------------------

def _populate(tree: FileTree, prefix: str = "/app") -> None:
    for i in range(SMALLFILE_FILES):
        tree.create_file(f"{prefix}/mod_{i:04}.py", size=SMALLFILE_SIZE)


def _sharedfs_files(n_nodes: int, _image) -> float:
    """Unpacked image directory on the shared FS: every node opens every
    small file through the metadata server (the packed image is unused)."""
    env = Environment()
    fs = SharedFS(env=env, mds_capacity=4)
    _populate(fs.tree)
    for _ in range(n_nodes):
        env.process(fs.proc_load_tree("/app"))
    env.run()
    return env.now


def _squash_on_sharedfs(n_nodes: int, image) -> float:
    """One squash file on the shared FS: a streaming read per node, then
    small-file IO against the node's own squash mount."""
    env = Environment()
    fs = SharedFS(env=env, mds_capacity=4)
    fs.tree.create_file("/images/app.squash", size=image.compressed_size)

    def one_node():
        yield env.process(fs.proc_open("/images/app.squash"))
        yield env.process(fs.proc_read_file("/images/app.squash"))
        view = mount_squash(image, fuse=False)
        yield env.timeout(view.load_all("/app"))

    for _ in range(n_nodes):
        env.process(one_node())
    env.run()
    return env.now


def _nodelocal_extract(n_nodes: int, image) -> float:
    """Pull the squash once per node, extract to tmpfs, read locally."""
    env = Environment()
    fs = SharedFS(env=env, mds_capacity=4)
    fs.tree.create_file("/images/app.squash", size=image.compressed_size)
    tmp_model = PROFILES["tmpfs"]

    def one_node():
        yield env.process(fs.proc_open("/images/app.squash"))
        yield env.process(fs.proc_read_file("/images/app.squash"))
        yield env.timeout(image.uncompressed_size / 450e6)
        per_file = (tmp_model.metadata_cost(3)
                    + tmp_model.sequential_read_cost(SMALLFILE_SIZE))
        yield env.timeout(SMALLFILE_FILES * per_file)

    for _ in range(n_nodes):
        env.process(one_node())
    env.run()
    return env.now


SMALLFILE_STRATEGIES = (
    ("sharedfs_files_s", _sharedfs_files),
    ("squash_sharedfs_s", _squash_on_sharedfs),
    ("nodelocal_extract_s", _nodelocal_extract),
)


def smallfile_sweep(node_counts, clock: SetupClock) -> list[dict]:
    """Startup time of a many-small-file app per strategy and node count."""
    t0 = time.perf_counter()
    tree = FileTree()
    _populate(tree)
    image = pack_squash(tree)
    clock.add(time.perf_counter() - t0)
    rows = []
    for n in node_counts:
        row: dict[str, object] = {"nodes": n}
        for key, strategy in SMALLFILE_STRATEGIES:
            row[key] = strategy(n, image)
        rows.append(row)
    return rows


def paper_sweeps(seed: int, size: str, clock: SetupClock) -> Outcome:
    """The §6.6 matrix plus a chaos seed sweep through the shard pool,
    then the §3.2 small-file sweep."""
    shape = SHAPES["paper_sweeps"][size]
    n_chaos = shape["chaos_seeds"]
    snapshot = WarmSnapshot.for_scenario_prefix()
    matrix = scenario_matrix(seed=seed)
    chaos = chaos_seed_sweep(
        CHAOS_SCENARIO, range(seed * n_chaos, (seed + 1) * n_chaos)
    )
    result = run_cells(matrix + chaos, jobs=shape["jobs"], snapshot=snapshot)
    values = result.values()
    metrics, reports = values[:len(matrix)], values[len(matrix):]
    rows = smallfile_sweep(shape["node_counts"], clock)
    launches = len(SMALLFILE_STRATEGIES) * sum(shape["node_counts"])
    submitted = (sum(m.pods_submitted for m in metrics)
                 + sum(r.pods_submitted for r in reports))
    completed = (sum(m.pods_completed for m in metrics)
                 + sum(r.pods_completed for r in reports))
    # pods a chaos plan failed are that plan's outcome, not a failure of
    # the run: counted in faults.failed_ops and checked by the digest
    by_faults = sum(r.pods_failed for r in reports)
    leaks = [f"seed {r.seed}: {leak}" for r in reports for leak in r.leaks]
    return Outcome(
        starts=completed + launches,
        attempted=submitted + launches,
        failed=submitted - completed - by_faults + len(leaks),
        outputs={
            "section66_table": summary_rows(metrics),
            "chaos_report": chaos_report_document(reports, CHAOS_SCENARIO),
            "smallfile_rows": rows,
        },
        leaks=leaks,
        counts={
            "faults.injected": sum(sum(r.injected.values()) for r in reports),
            "faults.requeues": sum(r.jobs_requeued for r in reports),
            "faults.failed_ops": by_faults,
        },
    )


WORKLOADS = {
    "fleet_steady": fleet_steady,
    "fleet_chaos_slo": fleet_chaos_slo,
    "replay_control_plane": replay_control_plane,
    "paper_sweeps": paper_sweeps,
}
