"""``src/repro`` must stand alone: no module imports the test tree.

Reference oracles live under ``tests/oracles`` and are swapped in by the
tests themselves; a production import of ``tests`` would ship them.
"""

import ast
import pathlib

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
