"""Virtual-time time-series recorder (repro.obs.timeseries)."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    check_timeseries,
    check_timeseries_file,
    install_sampler,
)
from repro.run import ObsConfig, observing, run
from repro.sim import Environment


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.enabled = True
    return reg


def test_disabled_recorder_is_inert():
    rec = TimeSeriesRecorder()
    assert not rec.due(1e9)
    assert rec.sample_due(1e9, _registry()) is None
    assert rec.snapshot() == {}
    assert rec.samples == 0


def test_enable_rejects_nonpositive_interval():
    rec = TimeSeriesRecorder()
    with pytest.raises(ValueError):
        rec.enable(interval=0.0)
    with pytest.raises(ValueError):
        rec.enable(interval=-1.0)
    for interval in (math.inf, math.nan):
        with pytest.raises(ValueError):
            rec.enable(interval=interval)
    assert not rec.enabled


def test_samples_stamp_on_the_grid():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    assert rec.sample(12.3) == 10.0
    assert rec._next_due == 15.0
    assert not rec.due(14.999)
    assert rec.due(15.0)


def test_counter_rate_appears_only_once_the_counter_moves():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    reg = _registry()
    reg.inc("flat.counter", 0)  # present but never moves from zero
    rec.sample(5.0, reg)
    assert rec.points("flat.counter.rate") == []
    reg.inc("flat.counter", 10)
    rec.sample(10.0, reg)
    assert rec.points("flat.counter.rate") == [(10.0, 2.0)]  # 10 over 5s
    # flat *after* appearing keeps recording 0.0 (so ">0" alerts resolve)
    rec.sample(15.0, reg)
    assert rec.points("flat.counter.rate")[-1] == (15.0, 0.0)


def test_counter_rate_uses_the_actual_tick_gap():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    reg = _registry()
    reg.inc("c", 5)
    rec.sample(5.0, reg)
    reg.inc("c", 30)
    rec.sample(20.0, reg)  # skipped two grid points; gap = 15s
    assert rec.points("c.rate") == [(5.0, 1.0), (20.0, 2.0)]


def test_gauges_and_histogram_quantiles_are_sampled():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    reg = _registry()
    reg.set_gauge("depth", 7.0, node="n0")
    for v in (0.1, 0.2, 0.3, 0.4):
        reg.observe("lat", v, buckets=(0.25, 0.5, 1.0))
    rec.sample(5.0, reg)
    assert rec.points("depth", node="n0") == [(5.0, 7.0)]
    (t, p50), = rec.points("lat.p50")
    (_, p99), = rec.points("lat.p99")
    assert t == 5.0
    assert 0.0 < p50 <= p99 <= 1.0


def test_probes_run_with_grid_timestamp_and_reset_clears_them():
    rec = TimeSeriesRecorder().enable(interval=10.0)
    seen = []
    rec.add_probe(lambda t: seen.append(t))
    rec.sample(23.0)
    assert seen == [20.0]
    rec.reset()
    assert rec._probes == []


def test_match_is_a_label_subset_filter():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    rec.record("w", 5.0, 1.0, tenant="a", shard="s0")
    rec.record("w", 5.0, 2.0, tenant="b", shard="s0")
    rec.record("other", 5.0, 3.0, tenant="a")
    keys = rec.match("w", (("tenant", "a"),))
    assert [k[0] for k in keys] == ["w"]
    assert len(keys) == 1
    assert len(rec.match("w")) == 2
    assert rec.match("w", (("tenant", "zz"),)) == []


def test_ring_buffer_caps_points_per_series():
    rec = TimeSeriesRecorder().enable(interval=1.0, capacity=4)
    for i in range(10):
        rec.record("g", float(i), float(i))
    pts = rec.points("g")
    assert len(pts) == 4
    assert pts == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]


def test_document_and_json_are_deterministic():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    rec.record("b", 5.0, 1.0, node="n1")
    rec.record("a", 5.0, 2.0)
    doc = rec.document()
    assert check_timeseries(json.loads(rec.to_json())) == []
    assert list(doc["series"]) == ["a", 'b{node="n1"}']
    assert rec.to_json() == rec.to_json()


def test_openmetrics_exposes_latest_point_with_timestamp():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    rec.record("fleet.pending", 5.0, 3.0, shard="s0")
    rec.record("fleet.pending", 10.0, 4.0, shard="s0")
    text = rec.to_openmetrics()
    assert 'fleet_pending{shard="s0"} 4 10' in text
    assert text.endswith("# EOF\n")


def test_absorb_adopts_the_blob_interval():
    """Merged points sit on the cells' sampling grid, so the merged
    recorder reports that interval, not its own default."""
    cell = TimeSeriesRecorder().enable(interval=10.0)
    cell.record("x", 10.0, 1.0)
    merged = TimeSeriesRecorder()
    assert merged.interval == 5.0
    merged.absorb(cell.capture_state())
    assert merged.interval == 10.0
    assert merged.document()["interval"] == 10.0
    assert merged.points("x") == [(10.0, 1.0)]


def test_install_state_merge_appends_in_blob_order():
    a = TimeSeriesRecorder().enable(interval=5.0)
    a.record("w", 5.0, 1.0, shard="s0")
    a.sample(5.0)
    b = TimeSeriesRecorder().enable(interval=5.0)
    b.record("w", 5.0, 2.0, shard="s0")
    b.record("w", 5.0, 9.0, shard="s1")
    b.sample(5.0)
    merged = TimeSeriesRecorder()
    merged.absorb(a.capture_state())
    merged.absorb(b.capture_state())
    assert merged.points("w", shard="s0") == [(5.0, 1.0), (5.0, 2.0)]
    assert merged.points("w", shard="s1") == [(5.0, 9.0)]
    assert merged.samples == 2


def test_capture_state_leaves_rate_bookkeeping_and_probes_behind():
    rec = TimeSeriesRecorder().enable(interval=5.0)
    reg = _registry()
    reg.inc("c", 5)
    rec.add_probe(lambda t: None)
    rec.sample(5.0, reg)
    blob = rec.capture_state()
    assert "points" in blob and "samples" in blob
    assert not any(k.startswith("_last") for k in blob)
    fresh = TimeSeriesRecorder()
    fresh.absorb(blob)
    assert fresh._probes == []
    assert fresh._last_counters == {}


def test_install_sampler_ticks_and_self_terminates():
    with observing(ObsConfig(timeseries=5.0)) as sampled:
        rec = sampled.recorder
        env = Environment()
        reg = _registry()

        def work():
            reg.inc("busy", 1)
            yield env.timeout(12.0)
            reg.inc("busy", 1)

        env.process(work())
        install_sampler(env, reg)
        env.run()  # terminates: the sampler exits once it is the only work
    assert rec.samples >= 2
    assert all(t % 5.0 == 0.0 for t, _ in rec.points("busy.rate"))


@pytest.mark.parametrize("bell_cls", ["Bell", "ReferenceBell"])
def test_install_sampler_waits_for_a_reserved_record(bell_cls):
    """An empty scheduler pass whose sleep straddles a sample boundary
    keeps the sampler going, as the queued sleep record of the loop it
    replaced did: same samples, same final clock."""
    from repro.sim import Bell

    from tests.oracles.k8s import ReferenceBell

    cls = {"Bell": Bell, "ReferenceBell": ReferenceBell}[bell_cls]
    with observing(ObsConfig(timeseries=1.0)) as sampled:
        rec = sampled.recorder
        env = Environment()
        reg = _registry()
        bell = cls(env, 0.5, lambda: None, idle=lambda: True)

        def ring_late():
            yield env.timeout(0.75)
            reg.inc("busy", 1)
            bell.ring()  # its empty pass is due at 1.25, past the 1.0 sample

        env.process(ring_late())
        install_sampler(env, reg)
        env.run()
    assert rec.samples == 2 and env.now == 2.0  # samples at 1 and 2


def test_install_sampler_is_a_noop_when_disabled():
    assert not run.recorder.enabled
    env = Environment()
    assert install_sampler(env, _registry()) is None
    env.run()  # empty queue; nothing was scheduled


@settings(max_examples=50, deadline=None)
@given(
    shards=st.lists(
        st.lists(
            st.tuples(
                st.floats(0.0, 100.0, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_merge_order_is_concatenation(shards):
    """Merging N captured recorders in order == recording every point
    into one recorder in the same order (the shard-runner contract)."""
    merged = TimeSeriesRecorder()
    merged.absorb(TimeSeriesRecorder().enable(interval=5.0).capture_state())
    direct = TimeSeriesRecorder().enable(interval=5.0)
    for pts in shards:
        cell = TimeSeriesRecorder().enable(interval=5.0)
        for t, v in pts:
            cell.record("s", t, v, shard="x")
            direct.record("s", t, v, shard="x")
        merged.absorb(cell.capture_state())
    assert merged.points("s", shard="x") == direct.points("s", shard="x")


# -- the repro-timeseries/1 reader -------------------------------------------


def _timeseries_document() -> dict:
    rec = TimeSeriesRecorder().enable(interval=5.0)
    rec.record("fleet.pending", 5.0, 3.0, shard="s0")
    rec.record("fleet.pending", 10.0, 4.0, shard="s0")
    rec.record("sim.rate", 5.0, 0.5)
    rec.samples = 2
    return json.loads(rec.to_json())


def test_timeseries_document_passes_the_strict_check(tmp_path):
    doc = _timeseries_document()
    assert check_timeseries(doc) == []
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    assert check_timeseries_file(str(path)) == 0
    doc["samples"] = 2.0
    path.write_text(json.dumps(doc))
    assert check_timeseries_file(str(path)) == 1


def test_timeseries_file_with_an_infinite_interval_fails(tmp_path, capsys):
    """What an unchecked ``--sample-interval inf`` run wrote: JSON's
    ``Infinity`` interval and ``NaN`` point times."""
    path = tmp_path / "series.json"
    path.write_text(
        '{"schema": "repro-timeseries/1", "interval": Infinity, "samples": 1, '
        '"series": {"fleet.pending": [[NaN, 3.0]]}}'
    )
    assert check_timeseries_file(str(path)) == 1
    err = capsys.readouterr()
    out = err.out + err.err
    assert "timeseries.interval" in out and "fleet.pending[0]" in out


_PENDING = 'fleet.pending{shard="s0"}'


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (lambda d: d.update(extra=1), "unexpected key 'extra'"),
        (lambda d: d.pop("samples"), "missing key 'samples'"),
        (lambda d: d.update(schema="repro-timeseries/2"), "timeseries.schema"),
        (lambda d: d.update(interval=5), "timeseries.interval: expected float"),
        (lambda d: d.update(interval=0.0), "positive interval"),
        (lambda d: d.update(interval=math.inf), "finite positive interval"),
        (lambda d: d.update(interval=math.nan), "finite positive interval"),
        (lambda d: d.update(samples=-1), "timeseries.samples: expected a count"),
        (lambda d: d.update(samples=True), "timeseries.samples: expected int"),
        (lambda d: d.update(series=[]), "timeseries.series: expected an object"),
        (lambda d: d["series"].update({"x{shard=s0}": []}), "is not a series name"),
        (lambda d: d["series"].update({"x": {}}), "series.x: expected a list"),
        (lambda d: d["series"][_PENDING].append([15.0]), "[2]: expected a [t, value] pair"),
        (lambda d: d["series"][_PENDING].append([15.0, 1.0, 2.0]), "a [t, value] pair"),
        (lambda d: d["series"][_PENDING][1].__setitem__(0, math.nan), "[1]: expected a [t"),
        (lambda d: d["series"][_PENDING][0].__setitem__(0, -math.inf), "[0]: expected a [t"),
        (lambda d: d["series"][_PENDING][0].__setitem__(1, 3), "[0][1]: expected float"),
        (lambda d: d["series"][_PENDING][1].__setitem__(0, None), "[1][0]: expected float"),
        (lambda d: d["series"][_PENDING][1].__setitem__(0, 5.0), "[1]: time 5.0 repeats"),
    ],
)
def test_timeseries_check_rejects_drift(tamper, expected):
    doc = _timeseries_document()
    tamper(doc)
    problems = check_timeseries(doc)
    assert any(expected in p for p in problems), problems


def test_timeseries_check_reads_a_time_below_its_predecessor_as_the_next_cell():
    """A sharded run appends each cell's points after the last cell's,
    so a series's time may fall back, but never repeat."""
    doc = _timeseries_document()
    doc["series"][_PENDING] += [[5.0, 1.0], [10.0, 2.0]]
    assert check_timeseries(doc) == []
    doc["series"][_PENDING].append([10.0, 2.0])
    assert check_timeseries(doc) == [
        f"timeseries.series.{_PENDING}[4]: time 10.0 repeats the point before it"
    ]


# -- the sampler's grid ---------------------------------------------------------


def _sample_until(interval: float, horizon: float, start: float = 0.0):
    """Sample a run that ends at ``horizon`` through the sampler process,
    stepping at most a bounded number of records; returns the stamps,
    the clock and how many records ran."""
    stamps = []
    with observing(ObsConfig(timeseries=interval)):
        run.recorder.add_probe(stamps.append)
        env = Environment(initial_time=start)

        def work(env):
            yield env.sleep(horizon - start)

        env.process(work(env))
        install_sampler(env)
        limit = 4 * int((horizon - start) / interval) + 16
        steps = 0
        while env.peek() < math.inf and steps < limit:
            env.step()
            steps += 1
        return stamps, env.now, steps, limit


@settings(max_examples=150, deadline=None)
@given(
    interval=st.one_of(
        st.sampled_from([0.1, 0.3, 1.1, 2.7, 5.0, 20.0]),
        st.floats(min_value=0.05, max_value=50.0),
    ),
    horizon=st.floats(min_value=0.0, max_value=60.0),
    start=st.sampled_from([0.0, 0.3, 4.3, 17.5]),
)
def test_sampler_stamps_strictly_increase_and_time_reaches_the_horizon(
    interval, horizon, start
):
    """Each stamp sits on the grid at or below the instant it was taken,
    stamps strictly increase, and the clock reaches the horizon: the
    sampler once re-sampled t = 4.3 forever at a 0.1 s interval, because
    ``4.3 / 0.1`` rounds to ``42.99999999999999``."""
    horizon += start
    stamps, now, steps, limit = _sample_until(interval, horizon, start)
    assert steps < limit
    # the sampler's last tick is the first boundary after the work ends
    assert horizon <= now and now - horizon <= interval * (1 + 1e-9)
    assert all(a < b for a, b in zip(stamps, stamps[1:])), stamps
    assert not stamps or start <= stamps[0] and stamps[-1] <= now


def test_sampler_at_a_tenth_of_a_second_passes_four_point_three():
    stamps, now, steps, limit = _sample_until(0.1, 5.0)
    assert steps < limit and now > 5.0
    assert stamps[42:44] == [4.3, 4.4]
    assert len(stamps) == len(set(stamps)) == 51


@pytest.mark.parametrize("interval", [5.0, 20.0])
def test_sampler_stamps_at_whole_intervals_are_the_multiples(interval):
    stamps, _now, _steps, _limit = _sample_until(interval, 1000.0)
    # (the last tick is the boundary after the work's process ends)
    assert stamps == [k * interval for k in range(1, int(1000.0 / interval) + 2)]
