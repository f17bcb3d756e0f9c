"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (a table, a figure, or a
quantitative claim), writes the rendered result to ``benchmarks/out/``,
asserts the *shape* the paper reports, and times the generating code via
pytest-benchmark.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sim import profile

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def write_artifact(out_dir: pathlib.Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text)


def once(benchmark, fn, *args, **kwargs):
    """Run a heavy simulation exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def once_counted(benchmark, fn, *args, **kwargs):
    """:func:`once` with the sim-core profile counters on.

    Returns ``(result, events)``, where ``events`` is the number of
    simulator events the run processed: a machine-independent cost the
    benches hold under a ceiling."""
    counters = profile.enable()
    try:
        result = once(benchmark, fn, *args, **kwargs)
    finally:
        profile.disable()
    events = counters.events_processed
    counters.reset()
    return result, events
