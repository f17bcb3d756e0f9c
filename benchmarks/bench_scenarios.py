"""§6.6 — the scenario comparison, quantified.

Runs all six integration setups (§6.1–§6.5, with §6.4 split into its two
modalities) on an identical pod workload and reproduces the summary:
"The only solutions satisfying the requirements are therefore the ones
mentioned in section 6.5 and the second part of 6.4."
"""

from repro.core.tables import render_table
from repro.scenarios import evaluate_all
from repro.scenarios.evaluate import summary_rows

from conftest import once_counted, write_artifact

#: simulator events the matrix may process: the 17,492 it took when the
#: ceiling was set, plus 25%
EVENT_CEILING = 21_865


def run_matrix():
    return evaluate_all(n_nodes=4, n_pods=8, seed=0)


def test_section66_comparison(benchmark, out_dir):
    metrics, events = once_counted(benchmark, run_matrix)
    rows = summary_rows(metrics)
    text = render_table(rows, "§6.6 scenario comparison (8 pods on 4 nodes)")
    notes = [f"\n{m.scenario}:" + "".join(f"\n  - {n}" for n in m.notes) for m in metrics if m.notes]
    write_artifact(out_dir, "section66_scenarios.txt", text + "\n".join(notes) + "\n")

    by_name = {m.scenario: m for m in metrics}

    # every scenario completed the workload (feasibility)
    assert all(m.pods_completed == m.pods_submitted for m in metrics)

    # §6.6 headline: only KNoC and §6.5 satisfy all requirements
    satisfying = {n for n, m in by_name.items() if m.satisfies_section6_requirements()}
    assert satisfying == {"knoc-virtual-kubelet", "kubelet-in-allocation"}

    # accounting: WLM-hosted scenarios only
    assert by_name["on-demand-reallocation"].wlm_accounting_coverage == 0.0
    assert by_name["wlm-in-kubernetes"].wlm_accounting_coverage == 0.0
    assert by_name["kubernetes-in-wlm"].wlm_accounting_coverage == 1.0
    assert by_name["kubelet-in-allocation"].wlm_accounting_coverage == 1.0

    # dynamic re-partitioning is slow and disturbing (§6.6)
    realloc = by_name["on-demand-reallocation"]
    assert realloc.mean_pod_startup > 10 * max(
        m.mean_pod_startup for n, m in by_name.items() if n != "on-demand-reallocation"
    )

    # §6.5 beats KNoC on environment standardness; both are transparent
    assert by_name["kubelet-in-allocation"].standard_pod_environment
    assert not by_name["knoc-virtual-kubelet"].standard_pod_environment
    assert by_name["knoc-virtual-kubelet"].workflow_transparency

    # the bridge requires workflow changes; §6.3 requires cluster bootstrap
    assert not by_name["bridge-operator"].workflow_transparency
    assert not by_name["kubernetes-in-wlm"].workflow_transparency

    # the matrix is a bounded amount of simulator bookkeeping
    assert events <= EVENT_CEILING, f"{events} events > ceiling {EVENT_CEILING}"
