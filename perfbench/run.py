"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_steady --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference 0..31

A run loads the library once, then repeats the workload, each
repetition in a child forked from that state (so every repetition pays
the same cold set-up, none pays for imports, and its peak memory is its
own), until ``--seconds`` have passed, and reports medians.  Untraced
repetitions sample the host's speed while they run (``hostspeed.py``)
and their times are reported at reference host speed.  Every
repetition's virtual-time outputs are digested and leak-audited; the
digests must agree across repetitions, traced or not, and with
``perfbench/reference.json`` when that file records the seed.  A
mismatch makes the run fail.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of ``BENCHMARK.json``.  With ``--trace 1`` untraced and traced
repetitions alternate; the per-layer metrics come from the traced
repetition with the median wall time, and ``trace_overhead`` is the
median traced wall over the median untraced wall.  The line before the
result is the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: a repetition that has not finished by then is killed and fails the run
REP_TIMEOUT_S = 120.0
#: no repetition starts that would likely end past this, whatever the
#: minimum counts say, so a run on a slow host still ends in time
HARD_LIMIT_S = 150.0
#: minimum repetitions per run: untraced (trace 0), and each kind (trace 1)
MIN_REPS = 3
MIN_TRACED_REPS = 1


# -- one repetition (forked child process) --------------------------------------

def load_library() -> None:
    """Put the source tree on ``sys.path`` and import every library module
    up front: repetitions fork from this process, so no repetition times
    an import the library defers into a function body."""
    import importlib
    import pkgutil

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    importlib.import_module("workloads")


def measure_rep(spec: dict) -> dict:
    """Run one repetition in this process and return its measurements."""
    import resource

    import workloads
    from hostspeed import SpeedSampler
    from layers import LayerTrace, leftover_wrappers
    from repro.sim import profile

    fn = workloads.WORKLOADS[spec["workload"]]
    clock = workloads.SetupClock()
    clock.install()
    trace = None
    if spec["traced"]:
        trace = LayerTrace()
        trace.install()
        profile.enable()
    else:
        sampler = SpeedSampler()
        sampler.start()
    t0 = time.perf_counter()
    try:
        outcome = fn(spec["seed"], spec["size"], clock)
        wall = time.perf_counter() - t0
    finally:
        if trace is None:
            sampler.stop()
        if trace is not None:
            profile.disable()
            originals = trace.originals()
            trace.uninstall()
        clock.uninstall()
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "wall_s": wall if trace is not None else wall - sampler.spent,
        "setup_s": clock.seconds,
        # 1.0 for traced repetitions, whose times are reported as measured
        "slowdown": 1.0 if trace is not None else sampler.slowdown(),
        "starts": outcome.starts,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "leaks": outcome.leaks,
        "digest": outcome.digest(),
        "counts": outcome.counts,
        # own peak plus the largest pool worker's (ru_maxrss is in KiB)
        "peak_rss_mb": (usage_self + usage_children) / 1024.0,
    }
    if trace is not None:
        out["events"] = profile.counters.events_processed
        out["layers"] = {
            "calls": trace.calls,
            "self_s": trace.self_s,
            "errors": trace.errors,
            "inclusive_s": trace.inclusive_s,
        }
        out["restored"] = not leftover_wrappers() and all(
            owner.__dict__[name] is raw for owner, name, raw in originals
        )
    return out


def _rep_child(spec: dict, conn) -> None:
    try:
        conn.send(("ok", measure_rep(spec)))
    except BaseException:
        import traceback

        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def run_rep(workload: str, seed: int, size: str, traced: bool,
            timeout: float = REP_TIMEOUT_S) -> dict:
    """Run one repetition in a forked child of this (library-loaded)
    process, so each repetition starts from the same cold state."""
    import multiprocessing

    spec = {"workload": workload, "seed": seed, "size": size, "traced": traced}
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_rep_child, args=(spec, sender))
    child.start()
    sender.close()
    try:
        if not receiver.poll(timeout):
            raise RepFailed(f"{workload} seed {seed} repetition exceeded {timeout:.0f}s")
        status, payload = receiver.recv()
    except EOFError:
        status, payload = "error", "repetition exited without a result"
    finally:
        receiver.close()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    if status != "ok":
        raise RepFailed(f"{workload} seed {seed} repetition failed:\n{payload}")
    return payload


class RepFailed(RuntimeError):
    pass


# -- metrics --------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """End-to-end values from untraced repetitions: medians of times at
    reference host speed (see :mod:`hostspeed`)."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "wall_s": statistics.median(r["wall_s"] / r["slowdown"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] / r["slowdown"] for r in reps),
        "starts_per_s": statistics.median(
            r["starts"] * r["slowdown"] / (r["wall_s"] - r["setup_s"]) for r in reps
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer values from the traced repetition with the median wall."""
    ordered = sorted(traced, key=lambda r: r["wall_s"])
    rep = ordered[(len(ordered) - 1) // 2]
    layers = rep["layers"]
    calls, self_s = layers["calls"], layers["self_s"]
    pull_calls = calls["registry.pull"]
    pull_errors = layers["errors"]["registry.pull"]
    sim_inclusive = layers["inclusive_s"]["sim.run"]
    values = {
        "sim.events": rep["events"],
        "sim.events_per_s": rep["events"] / sim_inclusive if sim_inclusive else 0.0,
        "registry.pull.retries": pull_errors,
        "registry.pull.success_ratio": (
            (pull_calls - pull_errors) / pull_calls if pull_calls else 1.0
        ),
        "shard.merge_s": self_s["shard.merge"],
        "traced_wall_s": rep["wall_s"],
        "unattributed_s": rep["wall_s"] - sum(self_s.values()),
        "trace_overhead": (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced)
        ),
        "error_rate": rep["failed"] / rep["attempted"],
    }
    for layer in calls:
        values.setdefault(f"{layer}.calls", calls[layer])
        values.setdefault(f"{layer}.self_s", self_s[layer])
    values.update(rep["counts"])
    return values


def metrics_block(wanted: list[dict], values: dict[str, float]) -> dict:
    """The result line's ``metrics``: each wanted metric with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


# -- correctness ----------------------------------------------------------------

def check(workload: str, seed: int, reps: list[dict], reference: dict) -> list[str]:
    """Problems with a run's outputs (empty when correct)."""
    problems = []
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {len(digests)} distinct output digests")
    for r in reps:
        if r["leaks"]:
            problems.append(f"leak audit: {r['leaks']}")
            break
    for r in reps:
        if r.get("restored") is False:
            problems.append("traced repetition left wrappers installed")
            break
    expected = reference["runs"].get(workload, {}).get(str(seed))
    if expected is not None:
        got = reps[0]
        for key, want in expected.items():
            have = got["digest"] if key == "digest" else got["counts"].get(key, got.get(key))
            if have != want:
                problems.append(f"{key}: got {have!r}, reference {want!r}")
    return problems


# -- one benchmark run --------------------------------------------------------------

def git_describe() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, traced: bool, reps: list[dict],
               referenced: bool) -> dict:
    import platform

    import numpy

    return {
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "reference_digest": referenced,
        "repetitions": [
            {"traced": "layers" in r, "wall_s": r["wall_s"], "setup_s": r["setup_s"],
             "slowdown": r["slowdown"]}
            for r in reps
        ],
    }


def measure(workload: str, seed: int, seconds: float,
            traced: bool) -> tuple[list[dict], list[dict]]:
    """Repeat the workload for ``seconds``; returns (untraced, traced)
    repetitions.  A repetition starts only if one more of median length
    still fits, or if the minimum count is not reached yet (and it still
    fits under :data:`HARD_LIMIT_S`)."""
    untraced: list[dict] = []
    traced_reps: list[dict] = []
    start = time.perf_counter()
    lengths: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        have_each = untraced and (traced_reps or not traced)
        enough = (len(untraced) >= (MIN_TRACED_REPS if traced else MIN_REPS)
                  and (not traced or len(traced_reps) >= MIN_TRACED_REPS))
        if have_each:
            next_end = elapsed + statistics.median(lengths)
            if next_end > HARD_LIMIT_S or (enough and next_end > seconds):
                break
        t0 = time.perf_counter()
        want_traced = traced and len(traced_reps) < len(untraced)
        rep = run_rep(workload, seed, "full", want_traced)
        (traced_reps if want_traced else untraced).append(rep)
        lengths.append(time.perf_counter() - t0)
    return untraced, traced_reps


def run_benchmark(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    reference = load_reference()
    seed = reference["default_seed"] if args.seed is None else args.seed
    traced = bool(args.trace)
    try:
        untraced, traced_reps = measure(args.workload, seed, args.seconds, traced)
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    reps = untraced + traced_reps
    problems = check(args.workload, seed, reps, reference)
    referenced = str(seed) in reference["runs"].get(args.workload, {})
    if not referenced:
        print(f"note: no reference digest for seed {seed}; checked that every "
              "repetition agrees", file=sys.stderr)
    if traced:
        values = per_layer(traced_reps, untraced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        wanted = spec["end_to_end"]
    metrics = metrics_block(wanted, values)
    print(json.dumps({"provenance": provenance(
        args.workload, seed, traced, reps, referenced)}))
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "metrics": metrics,
    }))
    return 1 if problems else 0


# -- reference digests ----------------------------------------------------------------

def record_reference(seed_spec: str) -> int:
    """Re-record the reference outputs for ``seed_spec`` ("A..B" or "N")."""
    lo, _, hi = seed_spec.partition("..")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    reference = load_reference()
    for workload in (w["name"] for w in load_spec()["workloads"]):
        runs = reference["runs"].setdefault(workload, {})
        for seed in seeds:
            rep = run_rep(workload, seed, "full", False)
            if rep["leaks"]:
                print(f"{workload} seed {seed} leaks: {rep['leaks']}", file=sys.stderr)
                return 1
            runs[str(seed)] = {
                "digest": rep["digest"], "starts": rep["starts"],
                "failed": rep["failed"], **rep["counts"],
            }
            print(f"{workload} seed {seed}: {rep['digest'][:16]} "
                  f"{rep['wall_s']:.2f}s", flush=True)
        reference["runs"][workload] = dict(sorted(runs.items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: reference.json default_seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", metavar="SEEDS")
    args = parser.parse_args(argv)
    if args.workload is None and not (args.self_test or args.record_reference):
        parser.error("--workload is required")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    try:
        load_library()
    except ImportError as exc:
        print(f"cannot load the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if args.self_test:
        import selftest

        return selftest.main()
    if args.record_reference:
        return record_reference(args.record_reference)
    return run_benchmark(args)


if __name__ == "__main__":
    # one fixed hash seed gives every run the same dict and set layouts;
    # outputs do not depend on it, only timing would
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
