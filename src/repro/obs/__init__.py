"""repro.obs — always-available, off-by-default observability.

Four cooperating instruments over the whole stack:

- :mod:`repro.obs.trace` — a virtual-time **span tracer** whose output
  loads directly into Perfetto/``chrome://tracing`` (engine startup
  phases, filesystem IO bursts, scheduler passes, registry transfers,
  one thread row per simulation process);
- :mod:`repro.obs.metrics` — a **labeled metrics registry** (counters,
  gauges, fixed-bucket histograms) that subsumes the flat
  :mod:`repro.sim.profile` counter block behind a compatibility bridge,
  with OpenMetrics-style text exposition;
- :mod:`repro.obs.timeseries` — a **virtual-time sampler** that turns
  the registry (plus engine-registered probes) into ring-buffered
  ``(t, value)`` series: gauges verbatim, counters as rates, histograms
  as running p50/p99;
- :mod:`repro.obs.slo` — a declarative **SLO rule engine** (threshold /
  error-ratio / burn-rate rules, JSON-roundtrip like ``FaultPlan``)
  evaluated over the sampled series, emitting deterministic fire/resolve
  alerts and a :class:`~repro.obs.slo.ScorecardReport`.

The registry, tracer and recorder a run writes into are parts of the
current :class:`~repro.run.Run`; an :func:`~repro.run.observing` session
installs a fresh set, armed as its :class:`~repro.run.ObsConfig` selects.
All are zero-cost while disabled — every instrumentation point in the
simulator pays one predicate check — and fully deterministic when
enabled: timestamps and values are virtual-time quantities, so repeated
runs export byte-identical artifacts.

Quick use::

    from repro.obs import slo, trace
    from repro.run import ObsConfig, observing

    with observing(ObsConfig(metrics=True, trace=True, timeseries=5.0)) as run:
        ...  # run a scenario / engine sweep (install a sampler, or let the
        ...  # fleet engine tick inline)
        trace.export_json("trace.json")   # open in https://ui.perfetto.dev
        print(run.metrics.render_table())
        evaluation = slo.evaluate(slo.default_chaos_rules(), run.recorder, end_time)

or, from the command line::

    python -m repro trace kubelet_in_allocation --out trace.json
    python -m repro scenarios --metrics
    python -m repro slo kubelet_in_allocation --seed 42 --out scorecard.json
"""

from repro.obs import metrics, slo, timeseries, trace
from repro.obs.export import to_chrome_json, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, to_openmetrics
from repro.obs.slo import (
    AlertEvent,
    BreachWindow,
    ScorecardReport,
    SloRule,
    SloRuleSet,
    default_chaos_rules,
    detection_latencies,
    evaluate,
)
from repro.obs.timeseries import TimeSeriesRecorder, install_sampler
from repro.obs.trace import Tracer

__all__ = [
    "AlertEvent",
    "BreachWindow",
    "MetricsRegistry",
    "ScorecardReport",
    "SloRule",
    "SloRuleSet",
    "TimeSeriesRecorder",
    "Tracer",
    "default_chaos_rules",
    "detection_latencies",
    "evaluate",
    "install_sampler",
    "metrics",
    "slo",
    "timeseries",
    "to_chrome_json",
    "to_openmetrics",
    "trace",
    "validate_chrome_trace",
]
