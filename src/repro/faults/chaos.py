"""Chaos runs: one scenario executed under a fault plan.

:func:`run_chaos` is the library entry point behind
``python -m repro chaos``: it arms the current run's injector with a
plan, provisions and drives a §6 scenario exactly like
:func:`repro.scenarios.evaluate.run_scenario`, then disarms and reports
what the faults did — injections by kind, retries, job requeues, pod
outcomes, and the leak audit.  Everything in the report is a pure
function of ``(scenario, plan, seed)``, so two runs agree byte for byte.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.faults.leaks import find_leaks
from repro.faults.plan import FaultPlan
from repro.obs import timeseries as _timeseries
from repro.obs.shape import MapOf, check_file, shape_problems
from repro.run import run
from repro.scenarios.base import WORKFLOW_IMAGE, IntegrationScenario, ScenarioMetrics
from repro.sim import Environment
from repro.workload.generators import PodBatchGenerator

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.slo import SloEvaluation, SloRuleSet


@dataclasses.dataclass
class ChaosReport:
    """What a fault plan did to one scenario run."""

    scenario: str
    seed: int
    n_events: int
    injected: dict[str, int]
    retries: dict[str, int]
    jobs_requeued: int
    pods_submitted: int
    pods_completed: int
    pods_failed: int
    leaks: list[str]
    end_time: float
    #: SLO alerts that fired over the sampled series (0 when the
    #: time-series recorder was off for the run)
    alerts_fired: int = 0
    #: fault kind -> virtual seconds from first injection to the first
    #: alert fire at/after it; None = injected but never detected
    detection: dict[str, float | None] = dataclasses.field(default_factory=dict)
    #: the full SLO evaluation (alerts + breach windows) for scorecard
    #: builders; excluded from equality and serialization
    evaluation: "SloEvaluation | None" = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def clean(self) -> bool:
        return not self.leaks

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready dict with schema-stable key order.

        Top-level keys follow the field declaration order above (plus
        the derived ``clean``); the ``injected``/``retries`` maps are
        emitted sorted by kind so two equal reports serialize to
        byte-identical JSON regardless of injection order.
        """
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "plan_events": self.n_events,
            "injected": dict(sorted(self.injected.items())),
            "retries": dict(sorted(self.retries.items())),
            "jobs_requeued": self.jobs_requeued,
            "pods_submitted": self.pods_submitted,
            "pods_completed": self.pods_completed,
            "pods_failed": self.pods_failed,
            "leaks": list(self.leaks),
            "end_time": self.end_time,
            "alerts_fired": self.alerts_fired,
            "detection": dict(sorted(self.detection.items())),
            "clean": self.clean,
        }

    def render(self) -> str:
        lines = [
            f"chaos: {self.scenario} seed={self.seed} "
            f"plan={self.n_events} event(s), ended at t={self.end_time:.1f}s",
        ]
        if self.injected:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
            lines.append(f"  faults injected: {parts}")
        else:
            lines.append("  faults injected: none")
        if self.retries:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.retries.items()))
            lines.append(f"  retry attempts:  {parts}")
        lines.append(f"  jobs requeued:   {self.jobs_requeued}")
        lines.append(
            f"  pods:            {self.pods_completed} completed, "
            f"{self.pods_failed} failed, {self.pods_submitted} submitted"
        )
        if self.detection:
            parts = ", ".join(
                f"{k}={v:.6g}s" if v is not None else f"{k}=undetected"
                for k, v in sorted(self.detection.items())
            )
            lines.append(f"  alerts fired:    {self.alerts_fired}")
            lines.append(f"  detection:       {parts}")
        if self.leaks:
            lines.append(f"  LEAKS ({len(self.leaks)}):")
            lines.extend(f"    - {leak}" for leak in self.leaks)
        else:
            lines.append("  leaks:           none (no lingering containers/mounts)")
        return "\n".join(lines)


#: the ``--out`` document's schema string
CHAOS_REPORT_SCHEMA = "repro-chaos-report/2"

#: the exact shape of ``repro-chaos-report/2``
#: (:mod:`repro.obs.shape` has the notation)
_MAYBE_FLOAT = (float, type(None))
_CHAOS_RUN = {
    "scenario": str, "seed": int, "plan_events": int,
    "injected": MapOf(int), "retries": MapOf(int), "jobs_requeued": int,
    "pods_submitted": int, "pods_completed": int, "pods_failed": int,
    "leaks": [str], "end_time": float, "alerts_fired": int,
    "detection": MapOf(_MAYBE_FLOAT), "clean": bool,
}
_CHAOS_AGGREGATE = {
    "runs": int, "injected": MapOf(int), "retries": MapOf(int),
    "jobs_requeued": int, "pods_submitted": int, "pods_completed": int,
    "pods_failed": int, "leaks": int, "alerts_fired": int,
    "detection": MapOf({"detected": int, "of": int, "mean_latency": _MAYBE_FLOAT}),
    "clean": bool,
}
_CHAOS_REPORT = {
    "schema": str, "scenario": str, "seeds": [int],
    "reports": [_CHAOS_RUN], "aggregate": _CHAOS_AGGREGATE,
}


def chaos_report_document(
    reports: _t.Sequence[ChaosReport], scenario: str
) -> dict[str, object]:
    """The ``--out report.json`` document: per-seed reports + aggregate.

    Works for a single run (one report) and for seed sweeps alike; key
    order is schema-stable (fixed top-level order, sorted fault kinds,
    reports in seed order as given), so serial and sharded sweeps — and
    repeated runs — serialize byte-identically.
    """
    injected: dict[str, int] = {}
    retries: dict[str, int] = {}
    for report in reports:
        for kind, count in report.injected.items():
            injected[kind] = injected.get(kind, 0) + count
        for kind, count in report.retries.items():
            retries[kind] = retries.get(kind, 0) + count
    # detection roll-up: of the runs a kind was injected in, how many
    # produced an alert at/after it, and the mean latency of those
    detection: dict[str, object] = {}
    for kind in sorted({k for r in reports for k in r.detection}):
        latencies = [
            r.detection[kind] for r in reports if r.detection.get(kind) is not None
        ]
        detection[kind] = {
            "detected": len(latencies),
            "of": sum(1 for r in reports if kind in r.detection),
            "mean_latency": (
                round(sum(latencies) / len(latencies), 6) if latencies else None
            ),
        }
    return {
        "schema": CHAOS_REPORT_SCHEMA,
        "scenario": scenario,
        "seeds": [report.seed for report in reports],
        "reports": [report.to_dict() for report in reports],
        "aggregate": {
            "runs": len(reports),
            "injected": dict(sorted(injected.items())),
            "retries": dict(sorted(retries.items())),
            "jobs_requeued": sum(r.jobs_requeued for r in reports),
            "pods_submitted": sum(r.pods_submitted for r in reports),
            "pods_completed": sum(r.pods_completed for r in reports),
            "pods_failed": sum(r.pods_failed for r in reports),
            "leaks": sum(len(r.leaks) for r in reports),
            "alerts_fired": sum(r.alerts_fired for r in reports),
            "detection": detection,
            "clean": all(r.clean for r in reports),
        },
    }


def check_chaos_report(doc: object) -> list[str]:
    """Strict shape check of a ``repro-chaos-report/2`` document: exact
    keys at every level, exact leaf types, the schema string, and the
    roll-up agreeing with its runs (seeds, run count, leak count and
    clean flags).  Returns the problems found (empty when the document
    is well formed)."""
    problems = shape_problems(doc, _CHAOS_REPORT, "report")
    if problems:
        return problems
    assert isinstance(doc, dict)
    if doc["schema"] != CHAOS_REPORT_SCHEMA:
        problems.append(
            f"report.schema: expected {CHAOS_REPORT_SCHEMA!r}, got {doc['schema']!r}"
        )
    runs = doc["reports"]
    aggregate = doc["aggregate"]
    if doc["seeds"] != [r["seed"] for r in runs]:
        problems.append("report.seeds: do not list the runs' seeds in order")
    if aggregate["runs"] != len(runs):
        problems.append("report.aggregate.runs: is not the number of runs")
    if aggregate["leaks"] != sum(len(r["leaks"]) for r in runs):
        problems.append("report.aggregate.leaks: is not the runs' leak count")
    for i, r in enumerate(runs):
        if r["clean"] != (not r["leaks"]):
            problems.append(f"report.reports[{i}].clean: disagrees with its leaks")
    if aggregate["clean"] != all(r["clean"] for r in runs):
        problems.append("report.aggregate.clean: disagrees with the runs")
    return problems


def check_chaos_report_file(path: str) -> int:
    """Check a chaos report file; print problems; return an exit code."""
    return check_file(path, check_chaos_report)


def _count_requeues(scenario: object) -> int:
    wlm = getattr(scenario, "wlm", None)
    if wlm is None:
        return 0
    jobs = getattr(wlm, "_jobs", {})
    return sum(getattr(job, "requeue_count", 0) for job in jobs.values())


def run_chaos(
    scenario_cls: type[IntegrationScenario],
    plan: FaultPlan,
    n_nodes: int = 4,
    n_pods: int = 8,
    seed: int = 0,
    horizon: float = 4000.0,
    slo: "SloRuleSet | None" = None,
) -> tuple[ScenarioMetrics, ChaosReport]:
    """Provision, submit the standard pod batch, run to the horizon —
    all under ``plan`` — then audit and report.

    The current run's injector is armed for the whole scenario lifetime
    (faults may hit provisioning too) and always disarmed on the way
    out, even if the scenario run raises.

    When the current run's recorder is enabled (an
    ``observing(ObsConfig(timeseries=...))`` session), a sampler
    process ticks through the run, the ``slo`` rules (default:
    :func:`~repro.obs.slo.default_chaos_rules`) are evaluated over the
    sampled series, alert fire/resolve instants land in the trace, and
    the report gains per-fault-kind detection latency.
    """
    env = Environment()
    run.faults.arm(plan, env)
    rec = run.recorder
    if rec.enabled:
        _timeseries.install_sampler(env, run.metrics)
    try:
        scenario = scenario_cls(env, n_nodes=n_nodes, seed=seed)
        ready = scenario.provision()
        env.run(until=ready)
        generator = PodBatchGenerator(WORKFLOW_IMAGE, seed=seed)
        pods = generator.batch(n_pods)
        scenario.submit(pods)
        env.run(until=horizon)
        if hasattr(scenario, "teardown"):
            scenario.teardown()
            env.run(until=horizon + 100)
        metrics = scenario.metrics()
        from repro.k8s.objects import PodPhase

        failed = sum(1 for p in scenario.pods if p.phase is PodPhase.FAILED)
        report = ChaosReport(
            scenario=scenario.name,
            seed=seed,
            n_events=len(plan),
            injected=dict(run.faults.injected_counts),
            retries=dict(run.faults.retry_counts),
            jobs_requeued=_count_requeues(scenario),
            pods_submitted=metrics.pods_submitted,
            pods_completed=metrics.pods_completed,
            pods_failed=failed,
            leaks=find_leaks(scenario),
            end_time=env.now,
        )
        if rec.enabled:
            from repro.obs import slo as _slo

            rec.sample_due(env.now, run.metrics)
            rules = slo if slo is not None else _slo.default_chaos_rules()
            evaluation = _slo.evaluate(rules, rec, env.now)
            if run.tracer.enabled:
                for alert in evaluation.alerts:
                    run.tracer.instant_at(
                        "slo.alert",
                        alert.at,
                        rule=alert.rule,
                        series=alert.series,
                        state=alert.state,
                    )
            report.alerts_fired = evaluation.fires
            report.detection = _slo.detection_latencies(
                dict(run.faults.injected_at), evaluation
            )
            report.evaluation = evaluation
        return metrics, report
    finally:
        run.faults.disarm()


def run_slo(
    scenario_cls: type[IntegrationScenario],
    plan: FaultPlan,
    rules: "SloRuleSet | None" = None,
    n_nodes: int = 4,
    n_pods: int = 8,
    seed: int = 0,
    horizon: float = 4000.0,
) -> tuple[ScenarioMetrics, ChaosReport, object]:
    """A chaos run scored against SLO rules: the ``python -m repro slo``
    entry point.

    Runs :func:`run_chaos` under ``rules`` (default:
    :func:`~repro.obs.slo.default_chaos_rules`) and builds the
    :class:`~repro.obs.slo.ScorecardReport` from the evaluation.  The
    caller's session samples the run: call it inside
    ``observing(ObsConfig(timeseries=interval))``, whose recorder keeps
    the sampled series for export.
    """
    from repro.obs import slo as _slo

    if not run.recorder.enabled:
        raise ValueError(
            "run_slo needs time-series sampling: call it inside "
            "observing(ObsConfig(timeseries=...))"
        )
    ruleset = rules if rules is not None else _slo.default_chaos_rules()
    metrics, report = run_chaos(
        scenario_cls,
        plan,
        n_nodes=n_nodes,
        n_pods=n_pods,
        seed=seed,
        horizon=horizon,
        slo=ruleset,
    )
    evaluation = report.evaluation
    assert evaluation is not None  # the recorder is on, so run_chaos evaluated
    scorecard = _slo.ScorecardReport.build(
        scenario=report.scenario,
        ruleset=ruleset,
        evaluation=evaluation,
        rec=run.recorder,
        registry=run.metrics,
        seed=seed,
        detection=report.detection,
    )
    return metrics, report, scorecard
