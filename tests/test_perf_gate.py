"""The perf gate's comparison (``tools/perf_gate.py``), on fabricated
perfbench result lines against the real ``BENCHMARK.json`` bounds."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "tools" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(correct=True, attempted=1000, failed=0, **values):
    """A perfbench ``--trace 0`` result line; metrics default to 1.0."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
                    for m in SPEC["end_to_end"]},
    }


def verdicts(gate, base, change):
    rows, ok = gate.compare(SPEC, base, change)
    return {row[0]: row[-1] for row in rows}, ok


def test_change_inside_every_bound_passes(gate):
    base = [line(wall_s=w) for w in (1.0, 1.02, 0.98)]
    change = [line(wall_s=1.15, setup_s=1.2, starts_per_s=0.85, peak_rss_mb=1.05,
                   success_rate=0.995)] * 3
    rows, ok = verdicts(gate, base, change)
    assert ok and set(rows.values()) == {"ok"}
    assert set(rows) == {"failed_share"} | {m["name"] for m in SPEC["end_to_end"]}


def test_wall_time_past_its_bound_fails(gate):
    rows, ok = verdicts(gate, [line()] * 3, [line(wall_s=1.21)] * 3)
    assert not ok and rows["wall_s"] == "FAIL"
    assert [name for name, verdict in rows.items() if verdict == "FAIL"] == ["wall_s"]


def test_throughput_is_better_higher(gate):
    rows, ok = verdicts(gate, [line()] * 3, [line(starts_per_s=1.5)] * 3)
    assert ok and rows["starts_per_s"] == "ok"
    rows, ok = verdicts(gate, [line()] * 3, [line(starts_per_s=0.79)] * 3)
    assert not ok and rows["starts_per_s"] == "FAIL"


def test_sides_compare_by_median(gate):
    # one slow outlier per side does not decide the verdict
    _, ok = verdicts(gate, [line()] * 3, [line(), line(), line(wall_s=3.0)])
    assert ok


@pytest.mark.parametrize("bad", [
    pytest.param(line(correct=False), id="incorrect"),
    pytest.param(None, id="exited-non-zero"),
])
@pytest.mark.parametrize("side", ["base", "change"])
def test_a_failed_or_incorrect_run_on_either_side_fails(gate, bad, side):
    runs = {"base": [line()] * 3, "change": [line()] * 3}
    runs[side] = [line(), bad, line()]
    rows, ok = verdicts(gate, runs["base"], runs["change"])
    assert not ok and rows == {"correct": "FAIL"}


def test_a_larger_failed_share_fails(gate):
    rows, ok = verdicts(gate, [line(failed=1)] * 3, [line(failed=2)] * 3)
    assert not ok and rows["failed_share"] == "FAIL"
    _, ok = verdicts(gate, [line(failed=2)] * 3, [line(failed=1)] * 3)
    assert ok
