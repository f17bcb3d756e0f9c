"""The benchmark's own self-test: ``python3 perfbench/run.py --self-test``.

For each workload at the tiny shape it runs one untraced and one traced
repetition and checks that

- every metric ``BENCHMARK.json`` names comes out, with its unit, as a
  finite number, in both modes;
- the traced and untraced output digests are identical, so tracing does
  not change what the program computes;
- every wrapped entry point is restored afterwards;
- the layer self times plus ``unattributed_s`` add up to the traced
  wall, with no layer counted twice (``unattributed_s`` is not negative);
- the run is clean: no leaks, no failed operations.

Then it runs every workload once at the full shape on the held-out seed
named in ``reference.json`` and checks that it runs clean, and matches
the reference digest when one is recorded.  Exits 0 when all pass.
"""

from __future__ import annotations

import math

import run

#: ``unattributed_s`` below this (seconds, past float rounding) means a
#: span was counted in two layers
UNATTRIBUTED_FLOOR = -1e-6


def _check_block(label: str, wanted: list[dict], values: dict) -> list[str]:
    problems = []
    block = run.metrics_block(wanted, values)
    for m in wanted:
        entry = block.get(m["name"])
        if entry is None or entry["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} missing or without unit {m['unit']}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {m['name']} is not a finite number: {entry['value']!r}")
    return problems


def _check_clean(label: str, rep: dict) -> list[str]:
    problems = []
    if rep["leaks"]:
        problems.append(f"{label}: leaks {rep['leaks']}")
    if rep["failed"]:
        problems.append(f"{label}: {rep['failed']} failed operation(s)")
    return problems


def check_workload(spec: dict, workload: str, seed: int) -> list[str]:
    plain = run.run_rep(workload, seed, "tiny", traced=False)
    traced = run.run_rep(workload, seed, "tiny", traced=True)
    label = f"{workload} (tiny)"
    problems = _check_block(f"{label} untraced", spec["end_to_end"], run.end_to_end([plain]))
    layer_values = run.per_layer([traced], [plain])
    problems += _check_block(f"{label} traced", spec["per_layer"], layer_values)
    if plain["digest"] != traced["digest"]:
        problems.append(f"{label}: tracing changed the output digest")
    if not traced["restored"]:
        problems.append(f"{label}: wrapped entry points not restored")
    if layer_values["unattributed_s"] < UNATTRIBUTED_FLOOR:
        problems.append(
            f"{label}: layer self times exceed the traced wall by "
            f"{-layer_values['unattributed_s']:.6f}s (double counting)"
        )
    problems += _check_clean(f"{label} untraced", plain)
    problems += _check_clean(f"{label} traced", traced)
    return problems


def check_held_out(workload: str, reference: dict) -> list[str]:
    seed = reference["held_out_seed"]
    rep = run.run_rep(workload, seed, "full", traced=False)
    label = f"{workload} (held-out seed {seed})"
    problems = _check_clean(label, rep)
    problems += [f"{label}: {p}" for p in run.check(workload, seed, [rep], reference)]
    return problems


def main() -> int:
    spec = run.load_spec()
    reference = run.load_reference()
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        found = check_workload(spec, workload, reference["default_seed"])
        found += check_held_out(workload, reference)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(f"  {problem}")
    print("self-test passed" if not problems else f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0
