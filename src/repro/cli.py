"""Command-line interface.

::

    python -m repro tables 1           # render a paper table
    python -m repro decide hardened    # decision document for a site profile
    python -m repro scenarios --jobs 4 # run the §6.6 comparison, sharded
    python -m repro startup            # cross-engine startup comparison
    python -m repro trace kubelet_in_allocation --out trace.json
                                       # Perfetto timeline of one scenario
    python -m repro chaos kubelet_in_allocation --seed 42
                                       # same scenario under a seeded fault plan
    python -m repro chaos kubelet_in_allocation --seeds 0..15 --jobs 4 \
        --out report.json              # sharded chaos seed sweep + JSON report
    python -m repro fleet --tenants 2000 --nodes 10000 --starts 1000000 \
        --jobs 8                       # trace-driven multi-tenant fleet run
    python -m repro fleet --chaos --seed 7 --slo --slo-out scorecard.json
                                       # fleet run under a seeded node-crash /
                                       # registry-outage plan, scored against
                                       # the fleet SLO rules
    python -m repro slo kubelet_in_allocation --seed 42 --out scorecard.json
                                       # chaos run sampled in virtual time and
                                       # scored against declarative SLO rules
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import typing as _t

from repro.core.requirements import SiteRequirements

_PROFILES = {
    "conservative": SiteRequirements.conservative_center,
    "hardened": SiteRequirements.security_hardened_center,
    "cloud": SiteRequirements.cloud_converged_center,
}


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.core import tables as t

    renderers = {
        1: ("Table 1 — engines: overview, rootless, OCI", t.table1_engines),
        2: ("Table 2 — engines: formats, caching, signing", t.table2_formats),
        3: ("Table 3 — engines: HPC integrations, community", t.table3_integrations),
        4: ("Table 4 — registries: overview, proxy, auth", t.table4_registries),
        5: ("Table 5 — registries: tenancy, quota, deployment", t.table5_registry_features),
    }
    numbers = [args.number] if args.number else sorted(renderers)
    for number in numbers:
        title, fn = renderers[number]
        print(t.render_table(fn(), title))
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    from repro.core.decision import DecisionReport

    site = _PROFILES[args.profile]()
    print(DecisionReport(site).render(include_tables=args.tables))
    return 0


# -- shared verb plumbing -----------------------------------------------------

#: stdout line formats for written artifacts, filled with (label, path)
_CHAOS_ROW = "  {:<17}{}"
_FLEET_ROW = "  {:<12}{}"


class _UsageError(Exception):
    """Bad command-line input; :func:`main` prints it and exits 2."""


@functools.lru_cache(maxsize=1)
def _scenario_classes() -> dict[str, type]:
    """Scenario lookup accepting both hyphen and underscore spellings.

    Memoized: the table is rebuilt from ``ALL_SCENARIOS`` once per
    process instead of once per command invocation."""
    from repro.shard.cells import scenario_table

    return scenario_table()


def _print_scenario_list() -> int:
    for name in sorted({cls.name for cls in _scenario_classes().values()}):
        print(name)
    return 0


def _scenario(name: str | None) -> type:
    if name is None:
        raise _UsageError("a scenario name is required (or --list)")
    scenarios = _scenario_classes()
    if name not in scenarios:
        names = ", ".join(sorted(c.name for c in set(scenarios.values())))
        raise _UsageError(f"unknown scenario {name!r}; one of: {names}")
    return scenarios[name]


def _fleet_config(args: argparse.Namespace):
    from repro.workload.fleet import FleetConfig

    try:
        return FleetConfig(
            tenants=args.tenants, nodes=args.nodes, starts=args.starts,
            images=args.images, zipf_s=args.zipf, seed=args.seed,
            shards=args.shards, day=args.day,
        )
    except ValueError as exc:
        raise _UsageError(f"bad {args.command} config: {exc}") from None


def _fault_plan(args: argparse.Namespace, node_names=None, generate=None):
    """The run's fault plan: ``--faults`` (its node-crash targets checked
    against ``node_names`` unless that is None), else ``generate()``,
    else None.  ``--save-plan`` writes whichever plan results."""
    from repro.faults.plan import FaultPlan

    if args.faults:
        try:
            plan = FaultPlan.from_file(args.faults)
            if node_names is not None:
                plan.check_node_targets(node_names)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"bad fault plan: {exc}") from None
    else:
        plan = generate() if generate is not None else None
    if getattr(args, "save_plan", None):
        if plan is None:
            raise _UsageError("--save-plan needs --chaos or --faults")
        _write(args.save_plan, plan.to_json(),
               f"fault plan ({len(plan)} events) written to {args.save_plan}")
    return plan


def _scenario_plan(args: argparse.Namespace, generate: bool = True):
    """``chaos``/``slo``: the plan over the scenario's ``nid0000…`` nodes,
    generated from ``--seed`` when ``generate`` and no file is given."""
    from repro.faults.plan import FaultPlan

    node_names = [f"nid{i:04}" for i in range(args.nodes)]

    def seeded():
        return FaultPlan.generate(seed=args.seed, horizon=600.0, node_names=node_names)

    return _fault_plan(args, node_names, seeded if generate else None)


def _slo_rules(path: str | None):
    from repro.obs.slo import SloRuleSet

    try:
        return SloRuleSet.from_file(path) if path else None
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad SLO rules: {exc}") from None


def _sample_interval(args: argparse.Namespace, needed: bool = False):
    """Effective sampling interval: ``--sample-interval``, else the
    default when the run ``needed`` sampling or ``--timeseries`` asks for
    an export, else None (off)."""
    from repro.obs.timeseries import DEFAULT_INTERVAL

    if args.sample_interval is not None:
        if not args.sample_interval > 0:
            raise _UsageError(f"--sample-interval must be positive, got {args.sample_interval}")
        return args.sample_interval
    return DEFAULT_INTERVAL if needed or args.timeseries else None


def _write(path: str, text: str, line: str) -> None:
    """Write one newline-terminated document and print its stdout line."""
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
    print(line)


def _write_obs(args: argparse.Namespace, row: str) -> None:
    """The shared ``--timeseries`` / ``--metrics`` / ``--metrics-out``
    tail; ``row`` formats each artifact's stdout line from (label, path)."""
    from repro.obs.metrics import registry
    from repro.obs.timeseries import recorder

    if getattr(args, "timeseries", None):
        _write(args.timeseries, recorder.to_json(), row.format("timeseries:", args.timeseries))
    if args.metrics:
        print()
        print(registry.render_table())
    if args.metrics_out:
        doc = {"schema": "repro-metrics/1", "series": registry.snapshot()}
        _write(args.metrics_out, json.dumps(doc, indent=2, sort_keys=True),
               row.format("metrics:", args.metrics_out))


def _trace_ok(doc: str) -> bool:
    """Validate an exported Perfetto trace, printing each problem."""
    from repro.obs.export import validate_chrome_trace

    problems = validate_chrome_trace(json.loads(doc))
    for p in problems:
        print(f"invalid trace: {p}", file=sys.stderr)
    return not problems


# -- simulation verbs ---------------------------------------------------------
# each runs its simulation inside one observing() session

def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.core.tables import render_table
    from repro.scenarios.evaluate import summary_rows
    from repro.shard import ObsConfig, WarmSnapshot, observing, run_cells, scenario_matrix

    if args.list:
        return _print_scenario_list()
    obs = ObsConfig(metrics=args.metrics or bool(args.metrics_out))
    snapshot = WarmSnapshot.for_scenario_prefix(args.nodes)
    with observing(obs):
        metrics = run_cells(
            scenario_matrix(n_nodes=args.nodes, n_pods=args.pods),
            jobs=args.jobs, obs=obs, snapshot=snapshot,
        ).values()
        print(render_table(summary_rows(metrics),
                           f"§6.6 comparison ({args.pods} pods on {args.nodes} nodes)"))
        for m in metrics:
            for note in m.notes:
                print(f"  [{m.scenario}] {note}")
        _write_obs(args, "  {:<9}{}")
    return 0


def _cmd_startup(args: argparse.Namespace) -> int:
    from repro.cluster import HostNode
    from repro.engines import ALL_ENGINES, DockerEngine, EnrootEngine
    from repro.oci import Builder
    from repro.oci.catalog import BaseImageCatalog
    from repro.registry import OCIDistributionRegistry
    from repro.shard import ObsConfig, observing

    with observing(ObsConfig(metrics=args.metrics or bool(args.metrics_out))):
        registry = OCIDistributionRegistry(name="cli")
        image = Builder(BaseImageCatalog()).build_dockerfile(
            "FROM ubuntu:22.04\nRUN write /opt/app 50000000\nENTRYPOINT /opt/app"
        )
        registry.push_image("cli/app", "v1", image)
        print(f"{'engine':>15} {'cold':>9} {'warm':>9}  rootfs")
        for engine_cls in ALL_ENGINES:
            node = HostNode(name="cli-node")
            engine = engine_cls(node)
            if isinstance(engine, DockerEngine):
                engine.start_daemon()
            user = node.kernel.spawn(uid=1000)
            pulled = engine.pull("cli/app", "v1", registry)
            if isinstance(engine, EnrootEngine):
                engine.import_image("cli/app:v1", pulled.image)
            cold = engine.run(pulled, user)
            warm = engine.run(engine.pull("cli/app", "v1", registry), user)
            print(f"{engine.info.name:>15} {cold.startup_seconds:8.3f}s "
                  f"{warm.startup_seconds:8.3f}s  {cold.container.rootfs.driver.name}")
        _write_obs(args, "metrics written to {1}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import export_json, tracer
    from repro.scenarios.evaluate import run_scenario
    from repro.shard import ObsConfig, observing

    scenario_cls = _scenario(args.scenario)
    with observing(ObsConfig(metrics=True, trace=True, trace_wall=args.wall)):
        metrics = run_scenario(scenario_cls, n_nodes=args.nodes, n_pods=args.pods)
        doc = export_json(args.out, indent=2 if args.pretty else None)
        cats = ", ".join(sorted(tracer.categories()))
        print(f"{args.out}: {len(tracer)} span records across "
              f"{len(tracer.categories())} subsystems ({cats})")
        print(f"  scenario={metrics.scenario} pods={metrics.pods_completed}/"
              f"{metrics.pods_submitted} provision={metrics.provision_time:.1f}s")
        _write_obs(args, "  metrics written to {1}")
    if not _trace_ok(doc):
        return 1
    print("  open in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import chaos_report_document, run_chaos
    from repro.obs.trace import export_json
    from repro.shard import ObsConfig, observing

    if args.list:
        return _print_scenario_list()
    scenario_cls = _scenario(args.scenario)
    if args.seeds is not None:
        return _chaos_sweep(args, scenario_cls)
    plan = _scenario_plan(args)
    with observing(ObsConfig(metrics=True, trace=True, timeseries=_sample_interval(args))):
        _metrics, report = run_chaos(
            scenario_cls, plan, n_nodes=args.nodes, n_pods=args.pods, seed=args.seed
        )
        doc = export_json(args.trace, indent=2 if args.pretty else None)
        print(report.render())
        print(_CHAOS_ROW.format("trace:", args.trace))
        if args.out:
            _write(args.out, json.dumps(chaos_report_document([report], scenario_cls.name),
                                        indent=2), _CHAOS_ROW.format("report:", args.out))
        _write_obs(args, _CHAOS_ROW)
    if not _trace_ok(doc):
        return 1
    return 0 if report.clean else 1


def _chaos_sweep(args: argparse.Namespace, scenario_cls: type) -> int:
    """``chaos --seeds A..B [--jobs N]``: the sharded chaos seed sweep.

    Stdout never mentions the worker count, and the runner's merge rules
    are placement-independent, so ``--jobs 1`` and ``--jobs N`` produce
    byte-identical output, trace files and report JSON.
    """
    from repro.faults.chaos import chaos_report_document
    from repro.obs.trace import export_json
    from repro.shard import (
        ObsConfig,
        WarmSnapshot,
        chaos_seed_sweep,
        observing,
        parse_seed_range,
        run_cells,
    )
    import dataclasses as _dc

    try:
        seeds = parse_seed_range(args.seeds)
    except ValueError as exc:
        raise _UsageError(f"bad --seeds: {exc}") from None
    if args.save_plan:
        raise _UsageError("--save-plan needs a single-seed run (drop --seeds)")
    if args.timeseries and not (args.metrics or args.metrics_out):
        # the sweep's sampled series are read off the metrics registry
        raise _UsageError("--timeseries with --seeds needs --metrics or --metrics-out")
    cells = chaos_seed_sweep(scenario_cls.name, seeds, n_nodes=args.nodes, n_pods=args.pods)
    plan = _scenario_plan(args, generate=False)
    if plan is not None:
        plan_json = plan.to_json()
        cells = [_dc.replace(cell, plan_json=plan_json) for cell in cells]
    obs = ObsConfig(metrics=args.metrics or bool(args.metrics_out), trace=True,
                    timeseries=_sample_interval(args))
    snapshot = WarmSnapshot.for_scenario_prefix(args.nodes)
    with observing(obs):
        reports = run_cells(cells, jobs=args.jobs, obs=obs, snapshot=snapshot).values()
        doc = export_json(args.trace, indent=2 if args.pretty else None)
        report_doc = chaos_report_document(reports, scenario_cls.name)
        print(f"chaos sweep: {scenario_cls.name} "
              f"seeds {seeds[0]}..{seeds[-1]} ({len(seeds)} run(s))")
        for report in reports:
            injected = sum(report.injected.values())
            retries = sum(report.retries.values())
            status = "clean" if report.clean else f"LEAKS={len(report.leaks)}"
            print(f"  seed {report.seed:>4}: injected={injected} retries={retries} "
                  f"requeued={report.jobs_requeued} "
                  f"pods {report.pods_completed}/{report.pods_submitted} {status}")
        agg = report_doc["aggregate"]
        parts = ", ".join(f"{k}={v}" for k, v in agg["injected"].items()) or "none"
        print(f"aggregate:         faults injected: {parts}")
        print(f"  pods:            {agg['pods_completed']} completed, "
              f"{agg['pods_failed']} failed, {agg['pods_submitted']} submitted")
        if agg["leaks"]:
            print(f"  LEAKS:           {agg['leaks']} across {agg['runs']} run(s)")
        else:
            print(f"  leaks:           none across {agg['runs']} run(s)")
        print(_CHAOS_ROW.format("trace:", args.trace))
        if args.out:
            _write(args.out, json.dumps(report_doc, indent=2),
                   _CHAOS_ROW.format("report:", args.out))
        _write_obs(args, _CHAOS_ROW)
    if not _trace_ok(doc):
        return 1
    return 0 if agg["clean"] else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: the trace-driven multi-tenant fleet workload.

    Stdout (and ``--out`` / ``--slo-out`` JSON) depends only on the
    merged shard results, so ``--jobs 1`` and ``--jobs N`` are
    byte-identical — the CI fleet-smoke and fleet-chaos steps ``cmp``
    exactly that.  ``--chaos`` / ``--faults`` deliver a fault plan into
    every shard; ``--slo`` scores the sampled ``fleet.*`` series.
    """
    from repro.shard import ObsConfig, observing
    from repro.workload.fleet import (
        fleet_node_names,
        fleet_report_document,
        generate_fleet_plan,
        render_fleet_summary,
        run_fleet,
        score_fleet_slo,
    )

    config = _fleet_config(args)
    if args.faults and args.chaos:
        raise _UsageError("--faults and --chaos are mutually exclusive")
    plan = _fault_plan(args, fleet_node_names(config), (
        lambda: generate_fleet_plan(config, seed=args.seed)) if args.chaos else None)
    want_slo = args.slo or bool(args.slo_out)
    rules = _slo_rules(args.rules) if want_slo else None
    obs = ObsConfig(metrics=args.metrics or bool(args.metrics_out),
                    timeseries=_sample_interval(args, needed=want_slo))
    with observing(obs):
        result = run_fleet(config, jobs=args.jobs, metrics=obs.metrics,
                           sample_interval=obs.timeseries, plan=plan)
        print(render_fleet_summary(result))
        if want_slo:
            scorecard = score_fleet_slo(result, rules=rules)
            print()
            print(scorecard.render())
            if args.slo_out:
                _write(args.slo_out, scorecard.to_json(),
                       _FLEET_ROW.format("scorecard:", args.slo_out))
        if args.out:
            _write(args.out, json.dumps(fleet_report_document(result), indent=2),
                   _FLEET_ROW.format("report:", args.out))
        _write_obs(args, _FLEET_ROW)
    return 0 if not result.leaks else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """``replay``: fleet traces through the real §6.5 control plane.

    Same byte-identity contract as ``fleet``: stdout and ``--out`` JSON
    depend only on the merged shard results, so ``--jobs 1`` and
    ``--jobs N`` produce identical output.
    """
    from repro.scenarios.fleet_replay import (
        render_replay_summary,
        replay_report_document,
        run_fleet_replay,
    )
    from repro.shard import ObsConfig, observing

    config = _fleet_config(args)
    plan = _fault_plan(args)
    obs = ObsConfig(metrics=args.metrics or bool(args.metrics_out),
                    timeseries=_sample_interval(args))
    with observing(obs):
        result = run_fleet_replay(config, jobs=args.jobs, metrics=obs.metrics,
                                  sample_interval=obs.timeseries, plan=plan)
        print(render_replay_summary(result))
        if args.out:
            _write(args.out, json.dumps(replay_report_document(result), indent=2),
                   _FLEET_ROW.format("report:", args.out))
        _write_obs(args, _FLEET_ROW)
    return 0 if not result.leaks else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    """``slo``: a chaos run sampled in virtual time and scored against
    declarative SLO rules.

    Everything printed or written is a pure function of ``(scenario,
    plan, rules, seed, interval)``, so double runs — and the CI
    slo-smoke step's ``cmp`` — agree byte for byte.
    """
    from repro.faults.chaos import run_slo
    from repro.shard import ObsConfig, observing

    if args.list:
        return _print_scenario_list()
    scenario_cls = _scenario(args.scenario)
    plan = _scenario_plan(args)
    rules = _slo_rules(args.rules)
    interval = _sample_interval(args, needed=True)
    with observing(ObsConfig(metrics=True, timeseries=interval)):
        _metrics, report, scorecard = run_slo(
            scenario_cls, plan, rules=rules, n_nodes=args.nodes, n_pods=args.pods,
            seed=args.seed, sample_interval=interval,
        )
        print(scorecard.render())
        if args.out:
            _write(args.out, scorecard.to_json(), _FLEET_ROW.format("scorecard:", args.out))
        _write_obs(args, _FLEET_ROW)
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of the SC23 HPC-containerization survey.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags several verbs share, declared once as parent parsers
    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument("--metrics", action="store_true",
                         help="print the labeled metrics registry afterwards")
    metrics.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                         help="write the metrics registry snapshot as JSON "
                              "(schema repro-metrics/1)")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1,
                      help="worker processes (output is byte-identical to "
                           "--jobs 1)")
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--nodes", type=int, default=4)
    shape.add_argument("--pods", type=int, default=8)
    listing = argparse.ArgumentParser(add_help=False)
    listing.add_argument("--list", action="store_true",
                         help="list scenario names and exit")
    chaos_run = argparse.ArgumentParser(add_help=False)
    chaos_run.add_argument("--seed", type=int, default=0,
                           help="seed for the workload and any generated fault plan")
    chaos_run.add_argument("--faults", default=None, metavar="PLAN.json",
                           help="load the fault plan from a JSON file instead of "
                                "generating one")
    save_plan = argparse.ArgumentParser(add_help=False)
    save_plan.add_argument("--save-plan", default=None, metavar="PLAN.json",
                           help="write the effective fault plan to a JSON file")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--sample-interval", type=float, default=None,
                          metavar="SECONDS",
                          help="sample time-series every SECONDS of virtual time")
    sampling.add_argument("--timeseries", default=None, metavar="SERIES.json",
                          help="write the sampled time-series as JSON (schema "
                               "repro-timeseries/1; implies sampling at the "
                               "default 5 s interval)")

    def fleet_shape() -> argparse.ArgumentParser:
        # a fresh parent per verb: argparse shares parent actions, so
        # replay's set_defaults would otherwise move fleet's defaults too
        fleet = argparse.ArgumentParser(add_help=False)
        fleet.add_argument("--tenants", type=int, default=64)
        fleet.add_argument("--nodes", type=int, default=128)
        fleet.add_argument("--starts", type=int, default=5000,
                           help="total container starts across the fleet")
        fleet.add_argument("--images", type=int, default=24,
                           help="catalog size tenants mirror and pull from")
        fleet.add_argument("--zipf", type=float, default=1.2,
                           help="image-popularity Zipf skew (the §4 knob)")
        fleet.add_argument("--shards", type=int, default=8,
                           help="shard partitions (fixed per config; NOT the "
                                "worker count — see --jobs)")
        fleet.add_argument("--day", type=float, default=1800.0,
                           help="diurnal period in virtual seconds")
        fleet.add_argument("--out", default=None, metavar="REPORT.json",
                           help="also write the report document as JSON")
        return fleet

    p_tables = sub.add_parser("tables", help="render paper tables from the implementation")
    p_tables.add_argument("number", nargs="?", type=int, choices=range(1, 6))
    p_tables.set_defaults(fn=_cmd_tables)

    p_decide = sub.add_parser("decide", help="decision document for a site profile")
    p_decide.add_argument("profile", choices=sorted(_PROFILES))
    p_decide.add_argument("--tables", action="store_true")
    p_decide.set_defaults(fn=_cmd_decide)

    p_scen = sub.add_parser("scenarios", parents=[shape, jobs, listing, metrics],
                            help="run the §6.6 scenario comparison")
    p_scen.set_defaults(fn=_cmd_scenarios)

    p_start = sub.add_parser("startup", parents=[metrics],
                             help="cross-engine startup comparison")
    p_start.set_defaults(fn=_cmd_startup)

    p_trace = sub.add_parser(
        "trace", parents=[shape, metrics],
        help="run one scenario and export a Perfetto timeline",
    )
    p_trace.add_argument("scenario", metavar="scenario",
                         help="scenario name (hyphens or underscores)")
    p_trace.add_argument("--out", default="trace.json",
                         help="output path for the Chrome trace JSON")
    p_trace.add_argument("--wall", action="store_true",
                         help="also record wall-clock span durations "
                              "(non-deterministic args; off by default)")
    p_trace.add_argument("--pretty", action="store_true",
                         help="indent the JSON output")
    p_trace.set_defaults(fn=_cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        parents=[shape, jobs, listing, metrics, chaos_run, save_plan, sampling],
        help="run one scenario under a deterministic fault plan",
        description="Arm the fault injector with a seeded (or file-supplied) "
                    "plan, run the scenario, and report injections, retries, "
                    "requeues, pod outcomes, and the leak audit.  Same seed "
                    "and plan produce a byte-identical trace.  Sampling adds "
                    "SLO evaluation and detection latency to the report.",
    )
    p_chaos.add_argument("scenario", metavar="scenario", nargs="?",
                         help="scenario name (hyphens or underscores)")
    p_chaos.add_argument("--seeds", default=None, metavar="A..B",
                         help="run a seed sweep over the inclusive range "
                              "(or a single seed) instead of one --seed run")
    p_chaos.add_argument("--trace", default="chaos-trace.json",
                         help="output path for the Chrome trace JSON")
    p_chaos.add_argument("--out", default=None, metavar="REPORT.json",
                         help="also write the chaos report document as JSON "
                              "(schema repro-chaos-report/2)")
    p_chaos.add_argument("--pretty", action="store_true",
                         help="indent the trace JSON output")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_slo = sub.add_parser(
        "slo",
        parents=[shape, listing, metrics, chaos_run, sampling],
        help="score a chaos run against declarative SLO rules",
        description="Run one scenario under a deterministic fault plan with "
                    "virtual-time time-series sampling on (every 5 s unless "
                    "--sample-interval says otherwise), evaluate "
                    "threshold / error-ratio / burn-rate SLO rules over the "
                    "sampled series, and print a scorecard with per-rule "
                    "breach time, per-entity health, and per-fault-kind "
                    "detection latency.  Double runs agree byte for byte.",
    )
    p_slo.add_argument("scenario", metavar="scenario", nargs="?",
                       help="scenario name (hyphens or underscores)")
    p_slo.add_argument("--rules", default=None, metavar="RULES.json",
                       help="load SLO rules from a JSON file (default: the "
                            "built-in chaos rule set)")
    p_slo.add_argument("--out", default=None, metavar="SCORECARD.json",
                       help="write the scorecard as JSON (schema "
                            "repro-slo-scorecard/1)")
    p_slo.set_defaults(fn=_cmd_slo)

    p_fleet = sub.add_parser(
        "fleet",
        parents=[jobs, metrics, fleet_shape(), chaos_run, save_plan, sampling],
        help="run the trace-driven multi-tenant fleet workload",
        description="Simulate a fleet of tenants pulling Zipf-distributed "
                    "images through per-tenant registries onto a shared node "
                    "pool (diurnal Poisson arrivals, content-addressed node "
                    "caches).  The run is partitioned into deterministic "
                    "shard cells (tenant partitions); output is "
                    "byte-identical for any --jobs.  --out writes schema "
                    "repro-fleet-report/2.",
    )
    p_fleet.add_argument("--chaos", action="store_true",
                         help="generate a fleet-sized fault plan from --seed "
                              "(node crashes + registry windows) and deliver "
                              "it into every shard")
    p_fleet.add_argument("--slo", action="store_true",
                         help="sample fleet.* time-series and score them "
                              "against the fleet SLO rules (pending depth, "
                              "warm-rate floor, wait budgets, chaos symptoms)")
    p_fleet.add_argument("--slo-out", default=None, metavar="SCORECARD.json",
                         help="write the SLO scorecard as JSON (schema "
                              "repro-slo-scorecard/1; implies --slo)")
    p_fleet.add_argument("--rules", default=None, metavar="RULES.json",
                         help="load SLO rules from a JSON file (default: the "
                              "built-in fleet rule set)")
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_replay = sub.add_parser(
        "replay",
        parents=[jobs, metrics, fleet_shape(), chaos_run, sampling],
        help="replay fleet traces through the real §6.5 control plane",
        description="Feed the fleet workload's arrival traces (diurnal "
                    "Poisson, Zipf tenants/images) through the real "
                    "apiserver → scheduler → kubelet → engine → registry "
                    "path: each shard is an independent §6.5 sub-cluster "
                    "(kubelets in a WLM allocation).  Output is "
                    "byte-identical for any --jobs.  --faults delivers a "
                    "plan's registry windows into the replay pull path; "
                    "node crashes in the plan are ignored, since fleet node "
                    "ids don't name replay sub-cluster nodes.  --out writes "
                    "schema repro-fleet-replay-report/1.",
    )
    p_replay.set_defaults(fn=_cmd_replay, tenants=16, nodes=32, starts=400,
                          images=12, shards=4)
    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
