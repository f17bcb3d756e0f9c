"""Gate this tree's speed against a base checkout's, on the same host.

    python3 tools/perf_gate.py BASE_DIR

For each workload in ``BENCHMARK.json`` the gate alternates
``perfbench/run.py`` in BASE_DIR and in this tree, :data:`PAIRS` times,
and takes each side's median of every end-to-end metric.  It prints one
row per workload and metric and exits 1 if a run on either side fails or
is incorrect, if this tree fails a larger share of its operations, or if
a metric is worse than the base's by more than its ``bound`` in the
direction its ``better`` field gives.  Both sides run on the same host
back to back, so no committed baseline is needed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: alternating base/change runs per workload
PAIRS = 3
RUN_ARGS = ["--seed", "0", "--seconds", "10", "--trace", "0"]


def run(tree: pathlib.Path, workload: str) -> dict | None:
    """One perfbench run in ``tree``: its result line, or None if it exited non-zero."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, *RUN_ARGS],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{tree}: {workload} exited {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(lines[-1])


def failed_share(lines: list[dict]) -> float:
    return sum(r["failed"] for r in lines) / max(1, sum(r["attempted"] for r in lines))


def compare(spec: dict, base: list[dict | None], change: list[dict | None]) -> tuple[list[tuple], bool]:
    """Rows ``(metric, base, change, ratio, bound, verdict)`` for one
    workload, and whether ``change`` passes against ``base``.  Each side
    is its runs' result lines, None for a run that exited non-zero."""
    sides = [[r is not None and r["correct"] for r in side] for side in (base, change)]
    if not all(sides[0] + sides[1]):
        return [("correct", all(sides[0]), all(sides[1]), None, None, "FAIL")], False
    rows = []
    share = failed_share(base), failed_share(change)
    rows.append(("failed_share", *share, None, 0.0, "FAIL" if share[1] > share[0] else "ok"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        b, c = (statistics.median(r["metrics"][name]["value"] for r in side)
                for side in (base, change))
        if metric["better"] == "lower":
            worse = c > b * (1.0 + bound)
        else:
            worse = c < b * (1.0 - bound)
        ratio = c / b if b else None
        rows.append((name, b, c, ratio, bound, "FAIL" if worse else "ok"))
    return rows, all(row[-1] == "ok" for row in rows)


def fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    base_dir = pathlib.Path(argv[0]).resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    passed = True
    print(f"{'workload':22} {'metric':14} {'base':>10} {'change':>10} "
          f"{'ratio':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        base, change = [], []
        for _ in range(PAIRS):
            base.append(run(base_dir, workload))
            change.append(run(ROOT, workload))
        rows, ok = compare(spec, base, change)
        passed = passed and ok
        for name, b, c, ratio, bound, verdict in rows:
            print(f"{workload:22} {name:14} {fmt(b):>10} {fmt(c):>10} "
                  f"{fmt(ratio):>7} {fmt(bound):>6}  {verdict}", flush=True)
    print("perf gate: " + ("pass" if passed else "FAIL"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
