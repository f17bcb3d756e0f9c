"""§6.5 scaling ablation: how the kubelets-in-allocation approach
behaves as allocations grow.

The standing control plane amortizes over allocations; per-allocation
provision time is dominated by the kubelet join (constant-ish) while
the pod workload parallelizes across the allocation's nodes.

Writes ``out/scenario65_scaling.json``: a ``schema`` tag plus
machine-independent rounded rows, split per phase (provision vs
workload), so the sweep's numbers diff cleanly across changes instead of
living in a rendered text table.
"""

import hashlib
import json

from repro.scenarios import KubeletInAllocationScenario
from repro.scenarios.base import WORKFLOW_IMAGE
from repro.sim import Environment
from repro.workload.generators import PodBatchGenerator

from conftest import once_counted, write_artifact

#: simulator events the sweep may process: the 7,427 it took when the
#: ceiling was set, plus 25%
EVENT_CEILING = 9_283


def pod_digest(pods) -> str:
    """Order-independent fingerprint of the per-pod outcome surface.

    Covers exactly what a user-visible report is built from — name,
    binding, terminal phase, start/end virtual times (full ``repr``
    precision) — and none of the internal bookkeeping (profile counters,
    apiserver stats).
    """
    lines = sorted(
        f"{p.metadata.name} {p.node_name} {p.phase.value} "
        f"{p.start_time!r} {p.end_time!r}"
        for p in pods
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def run_once(n_nodes: int):
    env = Environment()
    scenario = KubeletInAllocationScenario(env, n_nodes=n_nodes)
    ready = scenario.provision()
    env.run(until=ready)
    provision_end = env.now
    pods = PodBatchGenerator(WORKFLOW_IMAGE, seed=5, cpu_choices=(8,),
                             duration_range=(60, 60)).batch(n_nodes * 4)
    submit_at = env.now
    scenario.submit(pods)
    env.run(until=submit_at + 2000)
    scenario.teardown()
    env.run(until=env.now + 50)
    metrics = scenario.metrics()
    workload_end = max(p.end_time for p in pods)
    makespan = workload_end - submit_at
    return {
        "nodes": n_nodes,
        "pods": len(pods),
        "steady_provision_s": round(scenario.steady_state_provision_time, 6),
        "mean_pod_startup_s": round(metrics.mean_pod_startup, 6),
        "workload_makespan_s": round(makespan, 6),
        "completed": metrics.pods_completed,
        "phases": {
            "provision": {
                "virtual_start_s": 0.0,
                "virtual_end_s": round(provision_end, 6),
            },
            "workload": {
                "virtual_start_s": round(submit_at, 6),
                "virtual_end_s": round(workload_end, 6),
            },
        },
        "pod_digest": pod_digest(pods),
    }


def sweep():
    return [run_once(n) for n in (2, 4, 8)]


def test_65_scaling(benchmark, out_dir):
    rows, events = once_counted(benchmark, sweep)
    document = {
        "schema": "scenario65-scaling/2",
        "workload": "pods = 4x nodes, 60s each, 8 cores",
        "rows": rows,
    }
    write_artifact(
        out_dir, "scenario65_scaling.json", json.dumps(document, indent=2) + "\n"
    )

    assert all(r["completed"] == r["pods"] for r in rows)
    # per-allocation provision stays flat-ish as the allocation grows
    assert rows[-1]["steady_provision_s"] < 2.5 * rows[0]["steady_provision_s"]
    # proportional workload on proportional nodes: makespan roughly flat
    assert rows[-1]["workload_makespan_s"] < 1.5 * rows[0]["workload_makespan_s"]
    # both phases land in order on the virtual clock
    for row in rows:
        phases = row["phases"]
        assert phases["provision"]["virtual_end_s"] <= phases["workload"]["virtual_start_s"]
        assert phases["workload"]["virtual_start_s"] < phases["workload"]["virtual_end_s"]
    # the sweep is a bounded amount of simulator bookkeeping
    assert events <= EVENT_CEILING, f"{events} events > ceiling {EVENT_CEILING}"

