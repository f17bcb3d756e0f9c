"""``src/repro`` must stand alone: no module imports the test tree.

Reference oracles live under ``tests/oracles`` and are swapped in by the
tests themselves; a production import of ``tests`` would ship them.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_no_src_module_imports_tests():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text(), str(path)))
        if module == "tests" or module.startswith("tests.")
    ]
    assert SRC.is_dir() and not offenders, offenders


# -- the world module owns every id counter and content cache ---------------

WORLD = SRC / "world.py"

#: packages whose objects draw from the world; they must not reach up
#: into the shard runner that copies it
DRAW_PACKAGES = ("fs", "oci", "kernel", "k8s", "registry", "signing")


def _module_bindings(tree: ast.Module):
    """(name, value) for every module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.value


def _is_count_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "count" and isinstance(func.value, ast.Name) and func.value.id == "itertools"
    return isinstance(func, ast.Name) and func.id == "count"


def test_only_the_world_module_binds_counters_and_caches():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == WORLD:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for name, value in _module_bindings(tree):
            counts = value is not None and any(_is_count_call(n) for n in ast.walk(value))
            if counts or name.endswith("_CACHE"):
                offenders.append(f"{path.relative_to(SRC.parent)}: {name}")
    assert WORLD.is_file() and not offenders, offenders


def test_world_module_is_a_leaf():
    imports = list(_imported_modules(ast.parse(WORLD.read_text(), str(WORLD))))
    assert imports and not [m for m in imports if m == "repro" or m.startswith("repro.")]


def test_draw_packages_do_not_import_the_shard_runner():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {module}"
        for package in DRAW_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text(), str(path)))
        if module == "repro.shard" or module.startswith("repro.shard.")
    ]
    assert not offenders, offenders


# -- the run module owns every observability sink and the fault injector -----

RUN = SRC / "run.py"

#: the five part classes, by the module that defines each
PART_MODULES = {
    "repro.sim.profile": "SimCounters",
    "repro.obs.metrics": "MetricsRegistry",
    "repro.obs.trace": "Tracer",
    "repro.obs.timeseries": "TimeSeriesRecorder",
    "repro.faults.injector": "FaultInjector",
}

#: module attributes that forward to the current run's part, kept for
#: callers outside ``src``
FORWARDERS = {"repro.sim.profile": "counters", "repro.obs.timeseries": "recorder"}


def _called_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def test_only_the_run_module_binds_sink_and_injector_instances():
    classes = set(PART_MODULES.values())
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path != RUN
        for name, value in _module_bindings(ast.parse(path.read_text(), str(path)))
        if value is not None and any(_called_name(n) in classes for n in ast.walk(value))
    ]
    assert not offenders, offenders


def test_run_module_imports_only_the_part_modules():
    imports = {
        m for m in _imported_modules(ast.parse(RUN.read_text(), str(RUN)))
        if m == "repro" or m.startswith("repro.")
    }
    assert imports == set(PART_MODULES)


def _module_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> module, for every ``import``/``from`` binding a module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def test_src_does_not_read_the_forwarders():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = _module_aliases(tree)
        for module, attr in FORWARDERS.items():
            if aliases.get(attr) == f"{module}.{attr}":
                offenders.append(f"{path.relative_to(SRC.parent)}: imports {module}.{attr}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and FORWARDERS.get(aliases.get(node.value.id, "")) == node.attr):
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}: "
                                 f"{node.value.id}.{node.attr}")
    assert not offenders, offenders


@pytest.mark.parametrize("first", ["repro.run", *PART_MODULES])
def test_run_module_imports_without_a_cycle(first):
    """Whichever module a process imports first, ``repro.run`` finishes
    loading: no part module reaches it at import time."""
    code = f"import {first}\nfrom repro.run import run\nprint(type(run).__name__)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.returncode == 0 and out.stdout.strip() == "Run", out.stderr


# -- one timer: src processes wait through sleep/sleep_until records ---------

#: the event-building timer calls, kept only for perfbench and tests
EVENT_TIMERS = {"timeout", "timeout_until"}


def test_src_keeps_one_timer():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(SRC.parent)
        for node in ast.walk(tree):
            if _called_name(node) in EVENT_TIMERS:
                offenders.append(f"{where}:{node.lineno}: calls {_called_name(node)}")
            elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "Timeout" for alias in node.names
            ):
                offenders.append(f"{where}:{node.lineno}: imports Timeout")
    assert not offenders, offenders
