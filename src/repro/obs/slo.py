"""Declarative SLO rules evaluated over sampled virtual-time series.

The survey's operational pitch — adaptive sites *notice* degradation and
react — needs more than raw series: it needs the alerting layer.  This
module provides it in the same declarative, JSON-roundtrip style as
:class:`~repro.faults.plan.FaultPlan`:

- :class:`SloRule` — one named rule over any ``name{label=}`` series
  selector, in three shapes: **threshold** (compare a sampled series
  against a bound, e.g. ``k8s.pod.start_seconds.p99 > 60``),
  **error_ratio** (windowed failure/total increment ratio of two counter
  series), and **burn_rate** (the error ratio divided by the SLO's error
  budget ``1 - objective`` — the multi-window burn-rate alerting rule
  from SRE practice, evaluated here on one window);
- :class:`SloRuleSet` — an ordered list of rules with ``to_json`` /
  ``from_file`` mirroring ``FaultPlan``;
- :func:`evaluate` — walks each rule over the recorder's grid-aligned
  points with a pending→firing→resolved state machine (``for_s`` is how
  long the condition must hold before the alert fires), producing
  deterministic :class:`AlertEvent` fire/resolve pairs and
  :class:`BreachWindow` spans;
- :class:`ScorecardReport` — the roll-up document (schema
  ``repro-slo-scorecard/1``): per-rule breach stats, worst-offending
  series, per-entity health (grouped by ``tenant=`` / ``node=`` / ...
  labels), histogram p50/p99 columns via
  :meth:`~repro.obs.metrics.Histogram.quantile`, and the chaos
  detection-latency table.

Selectors are label-subset matches: ``retry.attempts.rate`` matches every
labeled retry series, ``fs.io.bytes.rate{driver=overlayfs}`` only that
driver.  Ratio rules name *counter* series (``k8s.pods_failed``); the
engine reads the recorder's derived ``.rate`` points and reconstructs
per-window increments from them.

Everything here is a pure function of the recorder's contents, so two
runs of the same scenario produce byte-identical alerts, scorecards, and
trace instants.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from repro.obs.metrics import MetricsRegistry, _LabelKey, format_series
from repro.obs.shape import MapOf, check_file, shape_problems
from repro.obs.timeseries import TimeSeriesRecorder

#: schema tag for the scorecard document
SCORECARD_SCHEMA = "repro-slo-scorecard/1"

#: rule kinds
KINDS = ("threshold", "error_ratio", "burn_rate")

#: label names that identify an "entity" for the per-entity health table
ENTITY_LABELS = ("tenant", "node", "engine", "driver", "backend", "registry", "shard")


def parse_selector(text: str) -> tuple[str, _LabelKey]:
    """``name{k=v,...}`` -> ``(name, sorted label pairs)``.

    Values may be bare or double-quoted; an empty/missing label block
    matches every series with the name.
    """
    name, brace, rest = text.partition("{")
    name = name.strip()
    if not brace:
        return name, ()
    rest = rest.strip()
    if not rest.endswith("}"):
        raise ValueError(f"unterminated label block in selector {text!r}")
    body = rest[:-1].strip()
    if not body:
        return name, ()
    pairs = []
    for part in body.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"bad label {part!r} in selector {text!r}")
        value = value.strip().strip('"')
        pairs.append((key.strip(), value))
    return name, tuple(sorted(pairs))


@dataclasses.dataclass(frozen=True)
class SloRule:
    """One named alerting rule over sampled series.

    Three kinds.  **threshold** watches every stored series matching
    ``series`` (a ``name{label=}`` selector) and compares each sampled
    value ``op`` (``">"`` / ``"<"``) against ``value`` — e.g. "page when
    ``fleet.pending{shard=3}`` exceeds 512" or, with ``op="<"``, "page
    when ``fleet.warm_rate`` drops below 0.5".  **error_ratio** divides
    the windowed increments of the ``numerator`` counter by the
    ``denominator`` counter over the trailing ``window_s`` and compares
    that ratio.  **burn_rate** is the same ratio divided by the error
    budget ``1 - objective`` — a value of 2.0 means the budget burns at
    twice the sustainable rate.

    ``for_s`` is the hold time: the condition must stay true for that
    many virtual seconds of consecutive samples before the alert fires
    (0 fires on the first breaching sample).  Rules are frozen/hashable
    and JSON-roundtrip via :meth:`to_dict` / :meth:`from_dict`, so a
    ruleset file is reviewable configuration, not code.
    """

    name: str
    kind: str = "threshold"
    #: threshold rules: the series selector to watch
    series: str = ""
    #: comparison: observed ``op`` value  (">" or "<")
    op: str = ">"
    value: float = 0.0
    #: condition must hold this long (virtual s) before the alert fires
    for_s: float = 0.0
    #: ratio rules: counter selectors (the ``.rate`` series are read)
    numerator: str = ""
    denominator: str = ""
    #: ratio rules: sliding window for the increment sums
    window_s: float = 300.0
    #: burn_rate only: the SLO target; error budget is ``1 - objective``
    objective: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"rule {self.name!r}: unknown kind {self.kind!r}")
        if self.op not in (">", "<"):
            raise ValueError(f"rule {self.name!r}: op must be '>' or '<'")
        if self.kind == "threshold" and not self.series:
            raise ValueError(f"rule {self.name!r}: threshold rules need a series")
        if self.kind != "threshold" and not (self.numerator and self.denominator):
            raise ValueError(
                f"rule {self.name!r}: {self.kind} rules need numerator and denominator"
            )
        if self.kind == "burn_rate" and not 0.0 < self.objective < 1.0:
            raise ValueError(f"rule {self.name!r}: objective must be in (0, 1)")

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"name": self.name, "kind": self.kind}
        if self.series:
            out["series"] = self.series
        if self.op != ">":
            out["op"] = self.op
        out["value"] = self.value
        if self.for_s:
            out["for_s"] = self.for_s
        if self.numerator:
            out["numerator"] = self.numerator
        if self.denominator:
            out["denominator"] = self.denominator
        if self.kind != "threshold":
            out["window_s"] = self.window_s
        if self.kind == "burn_rate":
            out["objective"] = self.objective
        return out

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SloRule":
        """Parse one rule entry.  A numeric field that is not a number is
        a :class:`ValueError` naming the field and the rule."""
        name = str(data["name"])

        def number(field: str, default: float) -> float:
            value = data.get(field, default)
            try:
                return float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ValueError(
                    f"rule {name!r}: '{field}' must be a number, got {value!r}"
                ) from None

        return cls(
            name=name,
            kind=str(data.get("kind", "threshold")),
            series=str(data.get("series", "")),
            op=str(data.get("op", ">")),
            value=number("value", 0.0),
            for_s=number("for_s", 0.0),
            numerator=str(data.get("numerator", "")),
            denominator=str(data.get("denominator", "")),
            window_s=number("window_s", 300.0),
            objective=number("objective", 0.99),
        )


class SloRuleSet:
    """An ordered, name-unique list of :class:`SloRule`\\ s.

    Mirrors :class:`~repro.faults.plan.FaultPlan`'s serialization
    contract — ``to_json`` / ``from_json`` / ``to_file`` / ``from_file``
    — so scorecards can name the exact ruleset they were scored against
    and CI can pin rule files next to fault plans.  Iteration order is
    construction order; duplicate rule names raise at construction so an
    evaluation never silently merges two rules' breach windows.
    """

    def __init__(self, rules: _t.Iterable[SloRule] = (), name: str | None = None):
        self.rules: list[SloRule] = list(rules)
        self.name = name
        seen: set[str] = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ValueError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> _t.Iterator[SloRule]:
        return iter(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SloRuleSet {self.name or 'unnamed'} rules={len(self.rules)}>"

    # -- serialization (FaultPlan's contract) -------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        doc: dict[str, object] = {"rules": [r.to_dict() for r in self.rules]}
        if self.name is not None:
            doc["name"] = self.name
        return json.dumps(doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SloRuleSet":
        doc = json.loads(text)
        if isinstance(doc, list):  # bare rule list is accepted too
            doc = {"rules": doc}
        entries = doc.get("rules", []) if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not all(isinstance(r, dict) for r in entries):
            raise ValueError(
                "SLO rules are a JSON list of rule objects, or an object "
                "whose 'rules' is one"
            )
        return cls([SloRule.from_dict(r) for r in entries], name=doc.get("name"))

    def to_file(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_file(cls, path: str) -> "SloRuleSet":
        with open(path) as fh:
            return cls.from_json(fh.read())


def default_chaos_rules() -> SloRuleSet:
    """The out-of-the-box rule set chaos runs evaluate when no ``--rules``
    file is given.  Each rule watches a *symptom* series — what a site
    dashboard would page on — never the injector's own bookkeeping, so
    detection latency measures the stack noticing, not the fault firing.
    """
    return SloRuleSet(
        [
            # Engine/registry retry storms: any retry activity is a page.
            SloRule(name="retry-storm", series="retry.attempts.rate", value=0.0),
            # WLM symptoms of a node crash: failure sweeps and requeues.
            SloRule(name="node-failures", series="wlm.node_failures.rate", value=0.0),
            SloRule(name="job-requeues", series="wlm.job_requeues.rate", value=0.0),
            # Kubelet-visible pod failures (hook failures, pull exhaustion).
            SloRule(name="pod-failures", series="k8s.pods_failed.rate", value=0.0),
            # Shared-FS metadata latency (MDS degradation/outage).
            SloRule(name="mds-latency", series="fs.mds.wait.p99", value=0.5),
            # The startup SLO itself: p99 pod start under a minute.
            SloRule(name="pod-start-p99", series="k8s.pod.start_seconds.p99", value=60.0),
            # Failure-ratio and budget-burn forms over the same counters.
            SloRule(
                name="pod-failure-ratio",
                kind="error_ratio",
                numerator="k8s.pods_failed",
                denominator="k8s.pods_started",
                value=0.2,
                window_s=300.0,
            ),
            SloRule(
                name="start-budget-burn",
                kind="burn_rate",
                numerator="k8s.pods_failed",
                denominator="k8s.pods_started",
                objective=0.9,
                value=2.0,
                window_s=600.0,
            ),
        ],
        name="default-chaos",
    )


def default_fleet_rules() -> SloRuleSet:
    """The out-of-the-box rule set for fleet chaos runs (``fleet --slo``).

    Watches the ``fleet.*`` series the shard engines sample: queueing
    symptoms (pending-depth ceiling, per-start wait budgets), cache
    economics (warm-rate floor), and the chaos-facing delta series
    (requeues, failures, retry activity, nodes down).  All threshold
    rules — the fleet engine records per-tick deltas itself, so no
    ``.rate`` derivation is needed.  Like :func:`default_chaos_rules`,
    every rule watches a *symptom* a site dashboard would page on, so
    detection latency measures the stack noticing the fault.
    """
    return SloRuleSet(
        [
            # Queueing symptoms: a deep placement backlog or blown wait
            # budgets mean capacity loss or a pull storm.
            SloRule(name="pending-depth", series="fleet.pending", value=512.0),
            SloRule(name="wait-budget", series="fleet.wait_mean", value=30.0),
            SloRule(
                name="tenant-wait-budget",
                series="fleet.tenant.wait_mean",
                value=60.0,
            ),
            # Cache economics: the warm-start rate dropping below half
            # (held 2 min to skip the cold-cache ramp) is a cache wipe
            # or an image-popularity shift.
            SloRule(
                name="warm-rate-floor",
                series="fleet.warm_rate",
                op="<",
                value=0.5,
                for_s=120.0,
            ),
            # Chaos symptoms: crashed nodes, requeue sweeps, start
            # failures, registry retry storms.
            SloRule(name="nodes-down", series="fleet.nodes_down", value=0.0),
            SloRule(name="requeue-sweep", series="fleet.requeues", value=0.0),
            SloRule(name="start-failures", series="fleet.failures", value=0.0),
            SloRule(name="registry-retry-storm", series="fleet.retries", value=0.0),
        ],
        name="default-fleet",
    )


@dataclasses.dataclass(frozen=True)
class AlertEvent:
    """One fire or resolve edge, stamped in virtual time."""

    rule: str
    series: str
    state: str  # "fire" | "resolve"
    at: float
    value: float

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "series": self.series,
            "state": self.state,
            "at": self.at,
            "value": round(self.value, 6),
        }


@dataclasses.dataclass(frozen=True)
class BreachWindow:
    """A [fire, resolve) span; ``end=None`` means still firing at run end."""

    rule: str
    series: str
    start: float
    end: float | None

    def duration(self, end_time: float) -> float:
        return (self.end if self.end is not None else end_time) - self.start

    def to_dict(self, end_time: float) -> dict[str, object]:
        return {
            "rule": self.rule,
            "series": self.series,
            "start": self.start,
            "end": self.end,
            "duration": round(self.duration(end_time), 6),
        }


@dataclasses.dataclass
class SloEvaluation:
    """The outcome of :func:`evaluate` — sorted, deterministic."""

    alerts: list[AlertEvent]
    breaches: list[BreachWindow]
    end_time: float

    @property
    def fires(self) -> int:
        return sum(1 for a in self.alerts if a.state == "fire")


def _compare(value: float, op: str, bound: float) -> bool:
    return value > bound if op == ">" else value < bound


def _walk(
    rule: SloRule,
    series: str,
    points: _t.Sequence[tuple[float, float]],
    op: str,
    bound: float,
    alerts: list[AlertEvent],
    breaches: list[BreachWindow],
) -> None:
    """The pending→firing→resolved state machine over one point stream."""
    pending: float | None = None
    fire_t: float | None = None
    for t, v in points:
        if _compare(v, op, bound):
            if fire_t is None:
                if pending is None:
                    pending = t
                if t - pending >= rule.for_s:
                    fire_t = t
                    alerts.append(AlertEvent(rule.name, series, "fire", t, v))
        else:
            pending = None
            if fire_t is not None:
                alerts.append(AlertEvent(rule.name, series, "resolve", t, v))
                breaches.append(BreachWindow(rule.name, series, fire_t, t))
                fire_t = None
    if fire_t is not None:
        breaches.append(BreachWindow(rule.name, series, fire_t, None))


def _increments(points: _t.Sequence[tuple[float, float]], interval: float) -> list[tuple[float, float]]:
    """Turn a ``.rate`` point stream back into per-tick increments.

    Rates were recorded as delta/gap with the gap equal to the spacing
    between consecutive ticks, so ``rate * (t_i - t_{i-1})`` recovers the
    raw delta; the first point (no predecessor) uses the grid interval,
    matching what the sampler assumed when it had no previous tick.
    """
    out: list[tuple[float, float]] = []
    prev_t: float | None = None
    for t, rate in points:
        gap = (t - prev_t) if prev_t is not None and t > prev_t else interval
        out.append((t, rate * gap))
        prev_t = t
    return out


def _ratio_points(
    rule: SloRule, rec: TimeSeriesRecorder
) -> list[tuple[float, float]]:
    """The windowed num/den increment ratio, one point per grid tick."""
    num_name, num_labels = parse_selector(rule.numerator)
    den_name, den_labels = parse_selector(rule.denominator)
    num_inc: dict[float, float] = {}
    den_inc: dict[float, float] = {}
    for sink, name, labels in ((num_inc, num_name, num_labels), (den_inc, den_name, den_labels)):
        for key in rec.match(name + ".rate", labels):
            for t, inc in _increments(rec._points[key], rec.interval):
                sink[t] = sink.get(t, 0.0) + inc
    ticks = sorted(set(num_inc) | set(den_inc))
    out: list[tuple[float, float]] = []
    window: float = rule.window_s
    for t in ticks:
        lo = t - window
        num = sum(v for tt, v in num_inc.items() if lo < tt <= t)
        den = sum(v for tt, v in den_inc.items() if lo < tt <= t)
        out.append((t, (num / den) if den > 0 else 0.0))
    return out


def evaluate(
    rules: SloRuleSet, rec: TimeSeriesRecorder, end_time: float
) -> SloEvaluation:
    """Run every rule over the recorder's points.

    Threshold rules fan out over each matching stored series
    independently; ratio rules aggregate matching series into one
    logical stream labeled by the numerator selector.  The returned
    alerts are sorted by ``(at, rule, series, state)`` so the evaluation
    is identical regardless of rule or series insertion order.
    """
    alerts: list[AlertEvent] = []
    breaches: list[BreachWindow] = []
    for rule in rules:
        if rule.kind == "threshold":
            name, labels = parse_selector(rule.series)
            for key in rec.match(name, labels):
                _walk(
                    rule,
                    format_series(*key),
                    rec._points[key],
                    rule.op,
                    rule.value,
                    alerts,
                    breaches,
                )
        else:
            points = _ratio_points(rule, rec)
            if rule.kind == "burn_rate":
                budget = 1.0 - rule.objective
                points = [(t, v / budget) for t, v in points]
            _walk(rule, rule.numerator, points, rule.op, rule.value, alerts, breaches)
    alerts.sort(key=lambda a: (a.at, a.rule, a.series, a.state))
    breaches.sort(key=lambda b: (b.start, b.rule, b.series))
    return SloEvaluation(alerts=alerts, breaches=breaches, end_time=end_time)


def detection_latencies(
    injected_at: dict[str, float], evaluation: SloEvaluation
) -> dict[str, float | None]:
    """Per fault kind: first alert fire at/after the kind's first
    injection instant, minus that instant (``None`` = never detected).

    Attribution is deliberately loose — any alert counts, exactly like a
    human on call: the question scored is "how long after the fault did
    the monitoring stack notice *something*", not root-cause analysis.
    """
    fires = sorted(a.at for a in evaluation.alerts if a.state == "fire")
    out: dict[str, float | None] = {}
    for kind in sorted(injected_at):
        first = injected_at[kind]
        hit = next((t for t in fires if t >= first), None)
        out[kind] = round(hit - first, 6) if hit is not None else None
    return out


@dataclasses.dataclass
class ScorecardReport:
    """The SLO roll-up document for one run (JSON + rendered table)."""

    scenario: str
    seed: int | None
    interval: float
    end_time: float
    samples: int
    rules: list[dict[str, object]]
    alerts: list[dict[str, object]]
    breach_windows: list[dict[str, object]]
    entities: list[dict[str, object]]
    worst: list[dict[str, object]]
    percentiles: list[dict[str, object]]
    detection: dict[str, float | None]

    @classmethod
    def build(
        cls,
        scenario: str,
        ruleset: SloRuleSet,
        evaluation: SloEvaluation,
        rec: TimeSeriesRecorder,
        registry: MetricsRegistry | None = None,
        seed: int | None = None,
        detection: dict[str, float | None] | None = None,
    ) -> "ScorecardReport":
        end_time = evaluation.end_time
        # per-rule stats
        rule_rows: list[dict[str, object]] = []
        for rule in ruleset:
            windows = [b for b in evaluation.breaches if b.rule == rule.name]
            breach_s = sum(b.duration(end_time) for b in windows)
            worst_series = max(
                windows, key=lambda b: (b.duration(end_time), b.series), default=None
            )
            rule_rows.append(
                {
                    "rule": rule.name,
                    "kind": rule.kind,
                    "fires": sum(
                        1
                        for a in evaluation.alerts
                        if a.rule == rule.name and a.state == "fire"
                    ),
                    "breach_s": round(breach_s, 6),
                    "worst_series": worst_series.series if worst_series else None,
                }
            )
        # per-entity health: breach seconds grouped by identifying labels
        entity_breach: dict[tuple[str, str], float] = {}
        for b in evaluation.breaches:
            _name, labels = parse_selector(b.series)
            for k, v in labels:
                if k in ENTITY_LABELS:
                    ek = (k, v)
                    entity_breach[ek] = entity_breach.get(ek, 0.0) + b.duration(end_time)
        entities = [
            {
                "label": k,
                "entity": v,
                "breach_s": round(secs, 6),
                "health": round(max(0.0, 1.0 - secs / end_time), 6) if end_time else 1.0,
            }
            for (k, v), secs in sorted(
                entity_breach.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        # worst offenders: series ranked by total breach seconds
        series_breach: dict[str, float] = {}
        for b in evaluation.breaches:
            series_breach[b.series] = series_breach.get(b.series, 0.0) + b.duration(end_time)
        worst = [
            {"series": s, "breach_s": round(secs, 6)}
            for s, secs in sorted(series_breach.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        ]
        # latency percentiles straight off the registry histograms
        percentiles: list[dict[str, object]] = []
        if registry is not None:
            for (name, labels), hist in sorted(registry._histograms.items()):
                if hist.count:
                    percentiles.append(
                        {
                            "series": format_series(name, labels),
                            "count": hist.count,
                            "mean": round(hist.mean, 6),
                            "p50": round(hist.quantile(0.5), 6),
                            "p99": round(hist.quantile(0.99), 6),
                        }
                    )
        return cls(
            scenario=scenario,
            seed=seed,
            interval=rec.interval,
            end_time=round(end_time, 6),
            samples=rec.samples,
            rules=rule_rows,
            alerts=[a.to_dict() for a in evaluation.alerts],
            breach_windows=[b.to_dict(end_time) for b in evaluation.breaches],
            entities=entities,
            worst=worst,
            percentiles=percentiles,
            detection=detection or {},
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": SCORECARD_SCHEMA,
            "scenario": self.scenario,
            "seed": self.seed,
            "interval": self.interval,
            "end_time": self.end_time,
            "samples": self.samples,
            "rules": self.rules,
            "alerts": self.alerts,
            "breach_windows": self.breach_windows,
            "entities": self.entities,
            "worst": self.worst,
            "percentiles": self.percentiles,
            "detection": self.detection,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        lines = [
            f"SLO scorecard: {self.scenario}"
            + (f" (seed={self.seed})" if self.seed is not None else ""),
            f"  sampled every {self.interval:g}s of virtual time, "
            f"{self.samples} ticks, end t={self.end_time:g}s",
            "",
            f"  {'rule':<24} {'kind':<12} {'fires':>5} {'breach_s':>10}  worst series",
            "  " + "-" * 78,
        ]
        for row in self.rules:
            lines.append(
                f"  {row['rule']:<24} {row['kind']:<12} {row['fires']:>5} "
                f"{row['breach_s']:>10.6g}  {row['worst_series'] or '-'}"
            )
        if self.detection:
            lines.append("")
            lines.append(f"  {'fault kind':<24} {'detection latency':>18}")
            lines.append("  " + "-" * 44)
            for kind, lat in self.detection.items():
                rendered = f"{lat:.6g}s" if lat is not None else "undetected"
                lines.append(f"  {kind:<24} {rendered:>18}")
        if self.entities:
            lines.append("")
            lines.append(f"  {'entity':<32} {'breach_s':>10} {'health':>8}")
            lines.append("  " + "-" * 52)
            for row in self.entities[:10]:
                label = f"{row['label']}={row['entity']}"
                lines.append(
                    f"  {label:<32} {row['breach_s']:>10.6g} {row['health']:>8.4f}"
                )
        return "\n".join(lines)


#: the exact shape of ``repro-slo-scorecard/1`` (:mod:`repro.obs.shape`
#: has the notation).  A rule's ``breach_s`` is the integer ``0`` when
#: the rule has no breach window (the sum of nothing, rounded).
_SCORECARD = {
    "schema": str,
    "scenario": str,
    "seed": (int, type(None)),
    "interval": float,
    "end_time": float,
    "samples": int,
    "rules": [{
        "rule": str, "kind": str, "fires": int, "breach_s": (int, float),
        "worst_series": (str, type(None)),
    }],
    "alerts": [{"rule": str, "series": str, "state": str, "at": float, "value": float}],
    "breach_windows": [{
        "rule": str, "series": str, "start": float, "end": (float, type(None)),
        "duration": float,
    }],
    "entities": [{"label": str, "entity": str, "breach_s": float, "health": float}],
    "worst": [{"series": str, "breach_s": float}],
    "percentiles": [{
        "series": str, "count": int, "mean": float, "p50": float, "p99": float,
    }],
    "detection": MapOf((float, type(None))),
}


def check_slo_scorecard(doc: object) -> list[str]:
    """Strict shape check of a ``repro-slo-scorecard/1`` document: exact
    keys at every level, exact leaf types, the schema string, and per-
    rule rows that agree with the alerts and breach windows (one window
    per fire, one closed window per resolve, a worst series only for a
    rule that breached).  Returns the problems found (empty when the
    document is well formed)."""
    problems = shape_problems(doc, _SCORECARD, "scorecard")
    if problems:
        return problems
    assert isinstance(doc, dict)
    if doc["schema"] != SCORECARD_SCHEMA:
        problems.append(
            f"scorecard.schema: expected {SCORECARD_SCHEMA!r}, got {doc['schema']!r}"
        )
    names = [row["rule"] for row in doc["rules"]]
    if len(set(names)) != len(names):
        problems.append("scorecard.rules: rule names repeat")
    for section in ("alerts", "breach_windows"):
        for i, row in enumerate(doc[section]):
            if row["rule"] not in names:
                problems.append(f"scorecard.{section}[{i}].rule: names no listed rule")
    for i, alert in enumerate(doc["alerts"]):
        if alert["state"] not in ("fire", "resolve"):
            problems.append(f"scorecard.alerts[{i}].state: expected fire or resolve")
    for i, row in enumerate(doc["rules"]):
        where = f"scorecard.rules[{i}]"
        if row["kind"] not in KINDS:
            problems.append(f"{where}.kind: expected one of {', '.join(KINDS)}")
        states = [a["state"] for a in doc["alerts"] if a["rule"] == row["rule"]]
        windows = [w for w in doc["breach_windows"] if w["rule"] == row["rule"]]
        if row["fires"] != states.count("fire"):
            problems.append(f"{where}.fires: is not the rule's fire alert count")
        if len(windows) != row["fires"]:
            problems.append(f"{where}: expected one breach window per fire")
        if states.count("resolve") != sum(w["end"] is not None for w in windows):
            problems.append(f"{where}: expected one closed breach window per resolve")
        if row["worst_series"] not in ({w["series"] for w in windows} or {None}):
            problems.append(f"{where}.worst_series: is not one of the rule's breaches")
    return problems


def check_slo_scorecard_file(path: str) -> int:
    """Check a scorecard file; print problems; return an exit code."""
    return check_file(path, check_slo_scorecard)
