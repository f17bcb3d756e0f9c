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
