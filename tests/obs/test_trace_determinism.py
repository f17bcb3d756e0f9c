"""Determinism and stack-discipline guarantees of the whole-stack trace.

The paper-reproduction artifacts (benchmarks/out) are committed and CI
checks them byte-for-byte; the trace export must meet the same bar.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs import trace
from repro.obs.export import to_chrome_json, validate_chrome_trace
from repro.obs.trace import Tracer
from repro.run import ObsConfig, observing
from repro.scenarios.evaluate import run_scenario
from repro.scenarios.kubelet_in_allocation import KubeletInAllocationScenario
from repro.sim import Environment


def _trace_scenario() -> str:
    with observing(ObsConfig(metrics=True, trace=True)):
        run_scenario(KubeletInAllocationScenario, n_nodes=2, n_pods=3)
        return trace.export_json()


def test_scenario_trace_is_byte_identical_across_runs():
    one = _trace_scenario()
    two = _trace_scenario()
    assert one == two


def test_scenario_trace_is_valid_and_covers_four_subsystems():
    text = _trace_scenario()
    doc = json.loads(text)
    assert validate_chrome_trace(doc) == []
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] != "M"}
    # the acceptance bar: engine, fs, wlm/k8s, and registry all show up
    assert {"engine", "fs", "registry", "wlm", "k8s"} <= cats


def test_trace_contains_no_wall_clock_data_by_default():
    text = _trace_scenario()
    assert "wall_ms" not in text


# -- property: spans recorded by one simulated process never interleave
#    incorrectly, whatever the nesting/timeout pattern ---------------------

span_programs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # nesting depth of this span
        st.floats(min_value=0.0, max_value=5.0),  # timeout inside it
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(span_programs, min_size=1, max_size=4))
def test_spans_never_overlap_incorrectly_within_a_process(programs):
    t = Tracer()
    t.enabled = True
    env = Environment()
    t.attach(env)

    def worker(env, program, who):
        for depth, delay in program:
            spans = [t.span(f"p{who}.d{k}") for k in range(depth + 1)]
            for s in spans:
                s.__enter__()
            yield env.timeout(delay)
            for s in reversed(spans):
                s.__exit__(None, None, None)

    for who, program in enumerate(programs):
        env.process(worker(env, program, who))
    env.run()
    assert validate_chrome_trace(to_chrome_json(t)) == []
