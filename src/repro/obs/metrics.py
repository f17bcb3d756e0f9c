"""Labeled metrics: counters, gauges, fixed-bucket histograms.

The registry generalizes the flat :mod:`repro.sim.profile` counter block
to *labeled* series — ``fs.io.latency{driver="squashfuse", op="read"}``
instead of one global integer — while keeping the same operating rules:

- **off by default, zero-cost when disabled**: every mutator starts with
  one predicate check against :attr:`MetricsRegistry.enabled`; hot call
  sites additionally guard with the same check before building label
  dicts;
- **one per run**: the current run's registry (``repro.run.run.metrics``)
  aggregates across environments, nodes, and engines, so a sweep that
  builds many of each still gets one roll-up;
- **deterministic**: values are pure functions of simulated behaviour
  (virtual-time costs, counts, bytes) — snapshots of the same run are
  identical.

The old ``repro.sim.profile`` counters stay the mechanism of record for
the per-event simulator hot path (they are plain attribute increments —
a dict-keyed labeled counter would measurably slow ``step()``), and are
**subsumed behind a compatibility bridge**: :meth:`snapshot` and
:meth:`render_table` fold the current run's counters in as
``sim.<counter>`` series.  An :func:`~repro.run.observing` session arms
the registry (``ObsConfig(metrics=True)``) and the counters together.

Histograms use *fixed* bucket boundaries chosen at first observation (or
passed explicitly), so merged snapshots are always bucket-compatible.
"""

from __future__ import annotations

import re
import typing as _t

from repro.obs.shape import check_file, shape_problems

#: schema tag of the ``--metrics-out`` document
METRICS_SCHEMA = "repro-metrics/1"

#: default latency buckets (seconds) — spans sub-100µs metadata ops to
#: multi-minute transfers; +inf is implicit
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0
)

_LabelKey = tuple[tuple[str, str], ...]
_SeriesKey = tuple[str, _LabelKey]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: _LabelKey) -> str:
    """``name{k=v,...}`` — the conventional exposition format."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


#: what :func:`format_series` writes: a dotted name, then optionally
#: ``{k="v",...}``
_SERIES_NAME = re.compile(r'[A-Za-z_][\w.:]*(\{[A-Za-z_]\w*="[^"]*"(,[A-Za-z_]\w*="[^"]*")*\})?')


def series_name_problems(names: _t.Iterable[str], where: str) -> list[str]:
    """The series names under ``where`` that :func:`format_series`
    could not have written."""
    return [
        f"{where}: {name!r} is not a series name"
        for name in names
        if not _SERIES_NAME.fullmatch(name)
    ]


class Histogram:
    """Fixed-bucket histogram: cumulative-style bucket counts + sum."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]):
        self.buckets = buckets
        #: counts[i] observations <= buckets[i]; counts[-1] is +inf
        self.counts = [0] * (len(buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation within the
        bucket holding the target rank (the Prometheus
        ``histogram_quantile`` rule): the rank's bucket is located by
        cumulative count, then the value is interpolated between the
        previous bound and the bucket's own bound, assuming observations
        spread uniformly inside the bucket.  Observations in the +inf
        overflow bucket clamp to the highest finite bound — a quantile
        cannot exceed what the bucket layout can resolve."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cum = 0.0
        prev_bound = 0.0
        for i, bound in enumerate(self.buckets):
            c = self.counts[i]
            if c:
                if cum + c >= rank:
                    frac = (rank - cum) / c
                    return prev_bound + (bound - prev_bound) * frac
                cum += c
            prev_bound = bound
        return self.buckets[-1] if self.buckets else 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """One run's labeled metrics store."""

    def __init__(self) -> None:
        self.enabled = False
        self._counters: dict[_SeriesKey, float] = {}
        self._gauges: dict[_SeriesKey, float] = {}
        self._histograms: dict[_SeriesKey, Histogram] = {}
        #: metric name -> fixed bucket bounds (set at first observation)
        self._hist_buckets: dict[str, tuple[float, ...]] = {}

    # -- state transfer (shard runner) ---------------------------------------
    def capture_state(self) -> dict[str, object]:
        """A picklable copy of every recorded series.

        Keys are the internal ``(name, label_key)`` tuples — plain
        strings and tuples, so the state crosses a ``multiprocessing``
        boundary unchanged.  Histograms are captured as
        ``(buckets, counts, sum, count)`` tuples.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                key: (hist.buckets, tuple(hist.counts), hist.total, hist.count)
                for key, hist in self._histograms.items()
            },
            "hist_buckets": dict(self._hist_buckets),
        }

    def absorb(self, state: dict[str, object]) -> None:
        """Fold another registry's :meth:`capture_state` blob in under
        the shard-merge rules: counters and histogram bucket counts add,
        gauges take the incoming value (last writer wins — callers merge
        cells in deterministic cell-index order, never completion
        order), and histogram bucket bounds must agree (they are fixed
        per metric name precisely so merged snapshots stay
        bucket-compatible).
        """
        counters = _t.cast(dict, state["counters"])
        for key, value in counters.items():
            self._counters[key] = self._counters.get(key, 0.0) + value
        gauges = _t.cast(dict, state["gauges"])
        self._gauges.update(gauges)
        for name, bounds in _t.cast(dict, state["hist_buckets"]).items():
            existing = self._hist_buckets.setdefault(name, bounds)
            if existing != bounds:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ across shards "
                    f"({existing} vs {bounds})"
                )
        for key, (buckets, counts, total, count) in _t.cast(dict, state["histograms"]).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(tuple(buckets))
            if tuple(hist.buckets) != tuple(buckets):
                raise ValueError(
                    f"histogram series {key!r}: bucket bounds differ across shards"
                )
            for i, c in enumerate(counts):
                hist.counts[i] += c
            hist.total += total
            hist.count += count

    # -- mutators (all no-ops while disabled) --------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    # -- interned-series fast path -------------------------------------------
    def series_key(self, name: str, **labels: object) -> _SeriesKey:
        """Intern a series identity once, outside the hot loop.

        A per-event ``inc(name, tenant=...)`` rebuilds and re-sorts the
        label dict on every call; hot paths (the fleet engine does one
        increment per container start) precompute the key and use
        :meth:`inc_series` instead.  The key is exactly the internal
        storage key, so interned and dict-labeled increments land on the
        same series.
        """
        return (name, _label_key(labels))

    def inc_series(self, key: _SeriesKey, value: float = 1.0) -> None:
        """Increment a series by its pre-interned :meth:`series_key`."""
        if not self.enabled:
            return
        self._counters[key] = self._counters.get(key, 0.0) + value

    def observe_series(
        self,
        key: _SeriesKey,
        value: float,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        """Histogram observation by pre-interned :meth:`series_key`.

        Same storage as :meth:`observe` — interned and dict-labeled
        observations land on the same series — without rebuilding and
        re-sorting the label dict per call (the kubelet observes one
        pod-start latency per pod).
        """
        if not self.enabled:
            return
        hist = self._histograms.get(key)
        if hist is None:
            name = key[0]
            bounds = self._hist_buckets.get(name)
            if bounds is None:
                bounds = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
                self._hist_buckets[name] = bounds
            hist = self._histograms[key] = Histogram(bounds)
        hist.observe(value)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        if not self.enabled:
            return
        self._gauges[(name, _label_key(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> None:
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            bounds = self._hist_buckets.get(name)
            if bounds is None:
                bounds = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
                self._hist_buckets[name] = bounds
            hist = self._histograms[key] = Histogram(bounds)
        hist.observe(value)

    # -- readers (work regardless of enabled, for post-run reporting) --------
    def get_counter(self, name: str, **labels: object) -> float:
        return self._counters.get((name, _label_key(labels)), 0.0)

    def get_gauge(self, name: str, **labels: object) -> float | None:
        return self._gauges.get((name, _label_key(labels)))

    def get_histogram(self, name: str, **labels: object) -> Histogram | None:
        return self._histograms.get((name, _label_key(labels)))

    def series(self, prefix: str = "") -> list[str]:
        """Every recorded series name (formatted), optionally filtered."""
        keys: list[_SeriesKey] = [
            *self._counters, *self._gauges, *self._histograms
        ]
        out = [format_series(name, labels) for name, labels in keys]
        return sorted(s for s in out if s.startswith(prefix))

    def snapshot(self, include_sim: bool = True) -> dict[str, object]:
        """A plain, JSON-ready dict of every series.

        With ``include_sim`` the current run's :mod:`repro.sim.profile`
        counters are bridged in as ``sim.<name>`` counter series (the
        compatibility shim over the pre-obs counter block).
        """
        out: dict[str, object] = {}
        for (name, labels), value in sorted(self._counters.items()):
            out[format_series(name, labels)] = value
        for (name, labels), value in sorted(self._gauges.items()):
            out[format_series(name, labels)] = value
        for (name, labels), hist in sorted(self._histograms.items()):
            out[format_series(name, labels)] = hist.snapshot()
        if include_sim:
            from repro.run import run

            for cname, cvalue in run.counters.snapshot().items():
                out[f"sim.{cname}"] = cvalue
        return out

    def render_table(self, include_sim: bool = True) -> str:
        """Human-readable metrics table (the ``--metrics`` CLI output)."""
        lines = [f"{'metric':<58} {'value':>14}", "-" * 73]
        for series, value in self.snapshot(include_sim=include_sim).items():
            if isinstance(value, dict):  # histogram
                mean = value["sum"] / value["count"] if value["count"] else 0.0
                rendered = f"n={value['count']} mean={mean:.4g}"
            elif isinstance(value, float) and not value.is_integer():
                rendered = f"{value:.6g}"
            else:
                rendered = str(int(value))
            lines.append(f"{series:<58} {rendered:>14}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MetricsRegistry {'on' if self.enabled else 'off'} "
            f"counters={len(self._counters)} gauges={len(self._gauges)} "
            f"histograms={len(self._histograms)}>"
        )


# -- OpenMetrics-style text exposition ---------------------------------------

def _om_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _om_labels(labels: _LabelKey, extra: str = "") -> str:
    parts = [f'{_om_name(k)}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _om_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_openmetrics(reg: MetricsRegistry | None = None, include_sim: bool = True) -> str:
    """Render the registry in OpenMetrics-style text exposition.

    Dots in metric names become underscores, counters gain the
    conventional ``_total`` suffix, and histograms expose cumulative
    ``le``-labeled buckets plus ``_sum``/``_count`` — close enough to the
    wire format that standard dashboards parse it, while staying a pure
    deterministic function of the run.  ``reg`` defaults to the current
    run's registry.  With ``include_sim`` the current run's
    :mod:`repro.sim.profile` counters are bridged in as ``sim_*``.
    """
    from repro.run import run

    reg = run.metrics if reg is None else reg
    lines: list[str] = []
    by_name: dict[str, list[tuple[_LabelKey, float]]] = {}
    for (name, labels), value in reg._counters.items():
        by_name.setdefault(name, []).append((labels, value))
    for name in sorted(by_name):
        om = _om_name(name)
        lines.append(f"# TYPE {om} counter")
        for labels, value in sorted(by_name[name]):
            lines.append(f"{om}_total{_om_labels(labels)} {_om_value(value)}")
    by_name.clear()
    for (name, labels), value in reg._gauges.items():
        by_name.setdefault(name, []).append((labels, value))
    for name in sorted(by_name):
        om = _om_name(name)
        lines.append(f"# TYPE {om} gauge")
        for labels, value in sorted(by_name[name]):
            lines.append(f"{om}{_om_labels(labels)} {_om_value(value)}")
    by_hist: dict[str, list[tuple[_LabelKey, Histogram]]] = {}
    for (name, labels), hist in reg._histograms.items():
        by_hist.setdefault(name, []).append((labels, hist))
    for name in sorted(by_hist):
        om = _om_name(name)
        lines.append(f"# TYPE {om} histogram")
        for labels, hist in sorted(by_hist[name], key=lambda lv: lv[0]):
            cum = 0
            for bound, c in zip(hist.buckets, hist.counts):
                cum += c
                le = 'le="%s"' % _om_value(bound)
                lines.append(f"{om}_bucket{_om_labels(labels, le)} {cum}")
            cum += hist.counts[-1]
            inf_le = 'le="+Inf"'
            lines.append(f"{om}_bucket{_om_labels(labels, inf_le)} {cum}")
            lines.append(f"{om}_sum{_om_labels(labels)} {_om_value(hist.total)}")
            lines.append(f"{om}_count{_om_labels(labels)} {hist.count}")
    if include_sim:
        for cname, cvalue in run.counters.snapshot().items():
            om = _om_name(f"sim.{cname}")
            lines.append(f"# TYPE {om} counter")
            lines.append(f"{om}_total {_om_value(float(cvalue))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def metrics_document(reg: MetricsRegistry) -> dict[str, object]:
    """The ``--metrics-out`` document: every series of ``reg`` plus the
    ``sim.<counter>`` bridge."""
    return {"schema": METRICS_SCHEMA, "series": reg.snapshot()}


#: the exact shape of one histogram in a ``repro-metrics/1`` document
_HISTOGRAM = {"buckets": [float], "counts": [int], "sum": float, "count": int}


def check_metrics(doc: object) -> list[str]:
    """Strict shape check of a ``repro-metrics/1`` document: exactly the
    ``schema`` and ``series`` keys, the schema string, well-formed
    series names, and per series a float (counter or gauge), a
    histogram of exact keys and leaf types whose bucket counts (one
    more than its ascending bounds, the last for +inf) sum to its
    count, or, under ``sim.``, an int for each profile counter, all of
    them present.  Returns the problems found (empty when the document
    is well formed)."""
    from repro.run import run

    problems = shape_problems(doc, {"schema": str, "series": dict}, "metrics")
    if problems:
        return problems
    assert isinstance(doc, dict)
    if doc["schema"] != METRICS_SCHEMA:
        problems.append(f"metrics.schema: expected {METRICS_SCHEMA!r}, got {doc['schema']!r}")
    series = doc["series"]
    problems += series_name_problems(series, "metrics.series")
    sim = {f"sim.{field}" for field in run.counters.snapshot()}
    problems += [
        f"metrics.series: missing key {name!r}" for name in sorted(sim - set(series))
    ]
    for name, value in sorted(series.items()):
        where = f"metrics.series.{name}"
        if name.startswith("sim."):
            if name not in sim:
                problems.append(f"{where}: names no profile counter")
            else:
                problems += shape_problems(value, int, where)
        elif isinstance(value, dict):
            found = shape_problems(value, _HISTOGRAM, where)
            problems += found
            if found:
                continue
            bounds = value["buckets"]
            if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
                problems.append(f"{where}.buckets: expected ascending bounds")
            if len(value["counts"]) != len(bounds) + 1:
                problems.append(f"{where}.counts: expected one count per bucket and +inf")
            if sum(value["counts"]) != value["count"]:
                problems.append(f"{where}.count: is not the sum of the bucket counts")
        else:
            problems += shape_problems(value, float, where)
    return problems


def check_metrics_file(path: str) -> int:
    """Check a ``--metrics-out`` file; print problems; return an exit code."""
    return check_file(path, check_metrics)
