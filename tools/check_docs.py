#!/usr/bin/env python
"""Docs consistency check: dead links, phantom names, stale paths.

Five classes of documentation rot, all cheap to catch mechanically:

1. **Dead relative links** — every ``[text](path)`` markdown link whose
   target is a relative path must point at a file or directory that
   exists in the repo (anchors and external ``scheme://`` links are
   skipped; an anchor suffix on a file link is stripped before the
   existence check).
2. **Phantom metric names** — EXPERIMENTS.md carries the metric-name
   catalog.  Every backticked series name that looks like a metric
   (``fleet.pending``, ``k8s.pod.start_seconds.p99`` …) must literally
   appear somewhere under ``src/`` — either whole, or, for derived
   suffixes (``.rate`` / ``.p50`` / ``.p99``) and the ``sim.*`` bridge
   prefix, as its base series.  This keeps the catalog honest when a
   series is renamed or removed.
3. **Phantom CLI flags** — every ``python -m repro <verb> --flag …``
   command in the docs (shell continuation lines joined) must name a
   verb and flags that ``repro.cli.build_parser()`` accepts for that
   verb.  CHANGES.md is skipped: it is a log of past versions, and some
   of the flags it names have since been retired.
4. **Stale repo paths** — every backticked ``benchmarks/…``,
   ``perfbench/…``, ``tools/…``, ``src/…``, ``tests/…`` or
   ``examples/…`` path (in a code span or a fenced command) in the docs
   that describe the current tree (:data:`CURRENT_DOCS`) must exist.
5. **Phantom Python names** — every backticked dotted ``repro.x.y``
   name in :data:`CURRENT_DOCS` must resolve: its longest importable
   prefix imports, and ``getattr`` reaches the rest.  This catches docs
   that still name a deleted module, singleton or function.

Exit status: 0 clean, 1 with findings (one line each on stderr).
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

DOCS = sorted(REPO.glob("*.md"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.S)
#: the docs that describe the current tree; the other root docs are
#: logs of past versions, the paper, or code quoted from other repos
CURRENT_DOCS = ("ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "README.md", "ROADMAP.md")
#: backticked tokens that are metric series: dotted lowercase path, at
#: least one dot, no spaces/parens/braces (label examples are skipped)
METRIC_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$")
#: sampler-derived suffixes that never appear literally in src
DERIVED_SUFFIXES = (".rate", ".p50", ".p99")
#: a CLI command up to the end of its code span, pipe, redirect or comment
CLI_RE = re.compile(r"python -m repro ([a-z][a-z-]*)([^`|;&>#\n]*)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: a repo path inside a code span, up to the first character no path
#: here uses (globs, ellipses and ``::test`` suffixes end it)
PATH_RE = re.compile(
    r"(?<![\w./-])(?:benchmarks|perfbench|tools|src|tests|examples)/[\w./-]*"
)
#: a dotted Python name under the package, inside a code span
PYNAME_RE = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")


def iter_links(text: str):
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        yield target.split("#", 1)[0]


def check_links() -> list[str]:
    problems = []
    for doc in DOCS:
        for target in iter_links(doc.read_text()):
            if not target:
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(f"{doc.name}: dead link -> {target}")
    return problems


def metric_names(text: str) -> set[str]:
    names = set()
    for span in CODE_SPAN_RE.findall(text):
        for token in span.split(" / "):
            token = token.strip()
            # `repro.…` tokens are module paths, not series names
            if METRIC_RE.match(token) and not token.startswith("repro."):
                names.add(token)
    return names


def check_metrics() -> list[str]:
    catalog = REPO / "EXPERIMENTS.md"
    text = catalog.read_text()
    # only audit the catalog section: names elsewhere in the file may be
    # module paths (repro.obs.slo) rather than series names
    start = text.find("### Metric-name catalog")
    if start < 0:
        return ["EXPERIMENTS.md: metric-name catalog section not found"]
    end = text.find("### Summary", start)
    section = text[start:end if end > 0 else len(text)]

    src = "\n".join(
        p.read_text() for p in sorted((REPO / "src").rglob("*.py"))
    )
    problems = []
    for name in sorted(metric_names(section)):
        candidates = [name]
        for suffix in DERIVED_SUFFIXES:
            if name.endswith(suffix):
                candidates.append(name[: -len(suffix)])
        if name.startswith("sim."):
            candidates.append(name[len("sim."):])
        if name.endswith(".*"):
            candidates.append(name[:-2])
        if not any(f'"{c}"' in src or f"'{c}'" in src for c in candidates):
            problems.append(
                f"EXPERIMENTS.md: catalog series `{name}` not found in src/"
            )
    return problems


def cli_flags() -> dict[str, set[str]]:
    """Verb -> every option string the CLI parser accepts for it."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {verb: set(sub._option_string_actions) for verb, sub in verbs.choices.items()}


def check_cli_flags() -> list[str]:
    flags = cli_flags()
    problems = []
    for doc in DOCS:
        if doc.name == "CHANGES.md":
            continue
        text = doc.read_text().replace("\\\n", " ")
        for verb, rest in CLI_RE.findall(text):
            if verb not in flags:
                problems.append(f"{doc.name}: `python -m repro {verb}` names no CLI verb")
                continue
            for flag in FLAG_RE.findall(rest):
                if flag not in flags[verb]:
                    problems.append(
                        f"{doc.name}: `python -m repro {verb}` has no {flag} flag"
                    )
    return problems


def check_paths() -> list[str]:
    problems = []
    for name in CURRENT_DOCS:
        doc = REPO / name
        text = doc.read_text()
        spans = FENCE_RE.findall(text) + CODE_SPAN_RE.findall(FENCE_RE.sub("", text))
        paths = {path for span in spans for path in PATH_RE.findall(span)}
        problems += [f"{doc.name}: `{path}` does not exist"
                     for path in sorted(paths) if not (REPO / path).exists()]
    return problems


def resolves(name: str) -> bool:
    """Import the longest importable prefix of ``name``, then ``getattr``
    the remaining parts."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_python_names() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    problems = []
    for name in CURRENT_DOCS:
        text = (REPO / name).read_text()
        spans = CODE_SPAN_RE.findall(FENCE_RE.sub("", text))
        names = {found for span in spans for found in PYNAME_RE.findall(span)}
        problems += [f"{name}: `{found}` does not resolve"
                     for found in sorted(names) if not resolves(found)]
    return problems


def main() -> int:
    problems = (check_links() + check_metrics() + check_cli_flags() + check_paths()
                + check_python_names())
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK: {len(DOCS)} files, links + metric catalog + CLI flags + "
          "repo paths + Python names verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
