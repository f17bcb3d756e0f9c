"""Labeled metrics registry (repro.obs.metrics) and the sim.profile
compatibility bridge."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    check_metrics,
    check_metrics_file,
    format_series,
    metrics_document,
)
from repro.run import ObsConfig, Run, observing
from repro.sim import Environment


def test_disabled_registry_is_a_noop():
    reg = MetricsRegistry()
    reg.inc("engine.pulls", engine="sarus")
    reg.set_gauge("monitor.background_cpu_fraction", 0.002)
    reg.observe("fs.io.latency", 0.5)
    assert reg.snapshot(include_sim=False) == {}


def test_counters_accumulate_per_label_set():
    reg = MetricsRegistry()
    reg.enabled = True
    reg.inc("fs.io.bytes", 100, driver="squashfuse", op="read")
    reg.inc("fs.io.bytes", 50, driver="squashfuse", op="read")
    reg.inc("fs.io.bytes", 7, driver="overlay", op="read")
    assert reg.get_counter("fs.io.bytes", driver="squashfuse", op="read") == 150
    assert reg.get_counter("fs.io.bytes", driver="overlay", op="read") == 7
    assert reg.get_counter("fs.io.bytes") == 0.0  # unlabeled is its own series


def test_label_order_does_not_matter():
    reg = MetricsRegistry()
    reg.enabled = True
    reg.inc("x", op="read", driver="bind")
    reg.inc("x", driver="bind", op="read")
    assert reg.get_counter("x", driver="bind", op="read") == 2


def test_format_series():
    assert format_series("engine.pulls", ()) == "engine.pulls"
    key = (("driver", "squashfuse"), ("op", "read"))
    assert format_series("fs.io.latency", key) == \
        'fs.io.latency{driver="squashfuse",op="read"}'


def test_gauges_overwrite():
    reg = MetricsRegistry()
    reg.enabled = True
    reg.set_gauge("g", 1.0, node="n0")
    reg.set_gauge("g", 2.0, node="n0")
    assert reg.get_gauge("g", node="n0") == 2.0
    assert reg.get_gauge("g", node="n1") is None


def test_histogram_buckets_and_mean():
    h = Histogram((1.0, 10.0))
    for v in (0.5, 0.7, 5.0, 100.0):
        h.observe(v)
    assert h.counts == [2, 1, 1]
    assert h.count == 4
    assert h.mean == (0.5 + 0.7 + 5.0 + 100.0) / 4


def test_histogram_bounds_fixed_per_metric_name():
    """First observation fixes the bounds; later label sets of the same
    metric share them, so snapshots merge bucket-compatibly."""
    reg = MetricsRegistry()
    reg.enabled = True
    reg.observe("lat", 0.5, buckets=(1.0, 2.0), op="read")
    reg.observe("lat", 0.5, buckets=(9.0, 99.0), op="write")  # ignored
    assert reg.get_histogram("lat", op="write").buckets == (1.0, 2.0)
    reg.observe("other", 0.5)
    assert reg.get_histogram("other").buckets == DEFAULT_LATENCY_BUCKETS


def test_snapshot_bridges_sim_profile_counters():
    with observing(ObsConfig(metrics=True)) as metered:
        env = Environment()

        def proc(env):
            yield env.timeout(1)

        env.process(proc(env))
        env.run()
        snap = metered.metrics.snapshot()
        assert snap["sim.events_processed"] > 0
        assert snap["sim.processes_spawned"] == 1
        assert "sim.events_processed" not in metered.metrics.snapshot(include_sim=False)


def test_metrics_session_arms_the_profile_counters():
    idle = Run()
    assert not idle.metrics.enabled and not idle.counters.enabled
    with observing(ObsConfig(metrics=True)) as metered:
        assert metered.metrics.enabled and metered.counters.enabled


def test_render_table_lists_all_series():
    reg = MetricsRegistry()
    reg.enabled = True
    reg.inc("engine.pulls", 3, engine="sarus")
    reg.set_gauge("monitor.background_cpu_fraction", 0.002, monitor="dockerd")
    reg.observe("fs.io.latency", 0.05, driver="bind", op="read")
    table = reg.render_table(include_sim=False)
    assert 'engine.pulls{engine="sarus"}' in table
    assert "3" in table
    assert "0.002" in table
    assert "n=1" in table


def test_series_prefix_filter():
    reg = MetricsRegistry()
    reg.enabled = True
    reg.inc("engine.pulls")
    reg.inc("fs.io.files")
    reg.observe("fs.io.latency", 0.1)
    assert reg.series("fs.") == ["fs.io.files", "fs.io.latency"]


# -- Histogram.quantile -------------------------------------------------------


def test_quantile_rejects_out_of_range():
    h = Histogram((1.0,))
    import pytest

    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.1)


def test_quantile_of_empty_histogram_is_zero():
    assert Histogram((1.0, 10.0)).quantile(0.5) == 0.0


def test_quantile_interpolates_within_the_bucket():
    h = Histogram((10.0,))
    for _ in range(4):
        h.observe(5.0)
    # rank 2 of 4 in the (0, 10] bucket -> halfway through it
    assert h.quantile(0.5) == 5.0
    assert h.quantile(0.25) == 2.5
    assert h.quantile(1.0) == 10.0


def test_quantile_walks_cumulative_buckets():
    h = Histogram((1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    # counts: [1, 2, 1, 0]; p50 rank=2 lands in the (1, 2] bucket
    assert h.quantile(0.5) == 1.5
    assert h.quantile(0.99) > 2.0


def test_quantile_overflow_clamps_to_highest_finite_bound():
    h = Histogram((1.0, 10.0))
    for _ in range(10):
        h.observe(1e9)  # everything in +inf
    assert h.quantile(0.99) == 10.0


def test_quantile_is_monotone_in_q():
    h = Histogram((0.1, 0.5, 1.0, 5.0))
    for v in (0.05, 0.3, 0.3, 0.8, 2.0, 9.0):
        h.observe(v)
    qs = [h.quantile(q / 20) for q in range(21)]
    assert qs == sorted(qs)


# -- absorb() edge cases (the shard-merge contract) ----------------------------


def _reg_with(counter=0.0, gauge=None, obs=()):
    reg = MetricsRegistry()
    reg.enabled = True
    if counter:
        reg.inc("c", counter, tenant="a")
    if gauge is not None:
        reg.set_gauge("g", gauge, shard="s0")
    for v in obs:
        reg.observe("h", v, buckets=(1.0, 10.0))
    return reg


def test_merge_adds_counters_and_histogram_buckets():
    target = MetricsRegistry()
    target.absorb(_reg_with(counter=3, obs=(0.5,)).capture_state())
    target.absorb(_reg_with(counter=4, obs=(5.0, 50.0)).capture_state())
    assert target.get_counter("c", tenant="a") == 7
    hist = target.get_histogram("h")
    assert hist.counts == [1, 1, 1]
    assert hist.count == 3
    assert hist.total == 55.5


def test_merge_gauge_conflict_last_writer_wins():
    target = MetricsRegistry()
    target.absorb(_reg_with(gauge=1.0).capture_state())
    target.absorb(_reg_with(gauge=9.0).capture_state())
    assert target.get_gauge("g", shard="s0") == 9.0


def test_merge_rejects_mismatched_histogram_buckets():
    import pytest

    a = MetricsRegistry()
    a.enabled = True
    a.observe("h", 0.5, buckets=(1.0, 2.0))
    b = MetricsRegistry()
    b.enabled = True
    b.observe("h", 0.5, buckets=(7.0, 8.0))
    target = MetricsRegistry()
    target.absorb(a.capture_state())
    with pytest.raises(ValueError):
        target.absorb(b.capture_state())


def test_interned_series_keys_survive_capture_install():
    """series_key() identities are the storage keys, so an interned key
    minted before a capture/absorb round-trip still addresses the same
    series afterwards."""
    reg = MetricsRegistry()
    reg.enabled = True
    key = reg.series_key("fleet.starts", tenant="t00001")
    reg.inc_series(key, 5)
    blob = reg.capture_state()
    fresh = MetricsRegistry()
    fresh.enabled = True
    fresh.absorb(blob)
    fresh.inc_series(key, 2)
    assert fresh.get_counter("fleet.starts", tenant="t00001") == 7
    assert key in fresh._counters


def test_merge_property_counter_sums_match_any_split():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(
        shards=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b", "c"]),
                    # integer-valued so sums are exact under any grouping
                    st.integers(0, 10**6).map(float),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def run(shards):
        merged = MetricsRegistry()
        merged.absorb(MetricsRegistry().capture_state())
        totals = {}
        last_gauge = None
        for incs in shards:
            cell = MetricsRegistry()
            cell.enabled = True
            for tenant, v in incs:
                cell.inc("starts", v, tenant=tenant)
                totals[tenant] = totals.get(tenant, 0.0) + v
                cell.set_gauge("last", v)
                last_gauge = v
            merged.absorb(cell.capture_state())
        for tenant, total in totals.items():
            assert merged.get_counter("starts", tenant=tenant) == total
        if last_gauge is not None:
            assert merged.get_gauge("last") == last_gauge

    run()


# -- the repro-metrics/1 reader ----------------------------------------------


def _metrics_document() -> dict:
    """A ``--metrics-out`` document with a counter, a gauge, a histogram
    and the sim bridge, after a JSON round trip."""
    with observing(ObsConfig(metrics=True)) as run:
        run.metrics.inc("engine.pulls", engine="sarus")
        run.metrics.set_gauge("monitor.background_cpu_fraction", 0.002)
        run.metrics.observe("fs.io.latency", 0.5, op="read")
        run.metrics.observe("fs.io.latency", 250.0, op="read")
        return json.loads(json.dumps(metrics_document(run.metrics)))


def test_metrics_document_passes_the_strict_check(tmp_path):
    doc = _metrics_document()
    assert check_metrics(doc) == []
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(doc))
    assert check_metrics_file(str(path)) == 0
    doc["series"]["engine.pulls{engine=\"sarus\"}"] = 1
    path.write_text(json.dumps(doc))
    assert check_metrics_file(str(path)) == 1


_HIST = 'fs.io.latency{op="read"}'


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (lambda d: d.update(extra=1), "unexpected key 'extra'"),
        (lambda d: d.pop("series"), "missing key 'series'"),
        (lambda d: d.update(schema="repro-metrics/2"), "metrics.schema"),
        (lambda d: d.update(series=[]), "metrics.series: expected dict"),
        (lambda d: d["series"].update({"bad name": 1.0}), "is not a series name"),
        (lambda d: d["series"].update({'x{a=1}': 1.0}), "is not a series name"),
        (lambda d: d["series"].update({"engine.pulls{engine=\"sarus\"}": 1}),
         "expected float, got int"),
        (lambda d: d["series"].update({"g": "1.0"}), "series.g: expected float"),
        (lambda d: d["series"].update({"g": None}), "series.g: expected float"),
        (lambda d: d["series"].pop("sim.events_processed"),
         "missing key 'sim.events_processed'"),
        (lambda d: d["series"].update({"sim.ghost": 0}), "names no profile counter"),
        (lambda d: d["series"].update({"sim.heap_pops": 1.0}), "expected int, got float"),
        (lambda d: d["series"][_HIST].pop("sum"), "missing key 'sum'"),
        (lambda d: d["series"][_HIST].update(p50=1.0), "unexpected key 'p50'"),
        (lambda d: d["series"][_HIST].update(count=2.0), ".count: expected int"),
        (lambda d: d["series"][_HIST]["buckets"].append(5), ".buckets[7]: expected float"),
        (lambda d: d["series"][_HIST]["counts"].pop(), "one count per bucket"),
        (lambda d: d["series"][_HIST]["counts"].__setitem__(0, 3), "sum of the bucket"),
        (lambda d: d["series"][_HIST]["buckets"].reverse(), "ascending bounds"),
    ],
)
def test_metrics_check_rejects_drift(tamper, expected):
    doc = _metrics_document()
    tamper(doc)
    problems = check_metrics(doc)
    assert any(expected in p for p in problems), problems
