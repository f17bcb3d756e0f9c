"""Strict shape checks for the JSON artifacts the CLI writes.

A report reader states the exact shape of the document it reads and
:func:`shape_problems` lists every place a document departs from it, so
a writer that adds, drops or retypes a field without bumping its schema
version fails the check instead of silently drifting.  Shapes:

- a ``dict`` maps every key the object must have (and no other) to the
  key's shape;
- a one-element ``list`` is a list whose items all have that shape;
- :class:`MapOf` is an object with free string keys whose values all
  have one shape (fault-kind counts, for instance);
- a type is a leaf of exactly that type (``int`` excludes ``bool``); a
  tuple of types is a leaf of any of them (``(float, type(None))``).
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t


@dataclasses.dataclass(frozen=True)
class MapOf:
    """An object with free string keys, every value of ``value`` shape."""

    value: object


def shape_problems(value: object, shape: object, where: str) -> list[str]:
    """Every departure of ``value`` from ``shape``; ``where`` names the
    value's path in the messages."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return [f"{where}: expected an object, got {type(value).__name__}"]
        problems = [
            f"{where}: unexpected key {key!r}" for key in sorted(set(value) - set(shape))
        ] + [f"{where}: missing key {key!r}" for key in sorted(set(shape) - set(value))]
        for key in sorted(set(shape) & set(value)):
            problems += shape_problems(value[key], shape[key], f"{where}.{key}")
        return problems
    if isinstance(shape, MapOf):
        if not isinstance(value, dict):
            return [f"{where}: expected an object, got {type(value).__name__}"]
        return [
            problem
            for key in sorted(value)
            for problem in shape_problems(value[key], shape.value, f"{where}.{key}")
        ]
    if isinstance(shape, list):
        if not isinstance(value, list):
            return [f"{where}: expected a list, got {type(value).__name__}"]
        return [
            problem
            for i, item in enumerate(value)
            for problem in shape_problems(item, shape[0], f"{where}[{i}]")
        ]
    leaves = shape if isinstance(shape, tuple) else (shape,)
    assert all(isinstance(leaf, type) for leaf in leaves)
    if type(value) not in leaves:
        wanted = " or ".join(leaf.__name__ for leaf in leaves)
        return [f"{where}: expected {wanted}, got {type(value).__name__}"]
    return []


def check_file(path: str, check: _t.Callable[[object], list[str]]) -> int:
    """Run a document checker over a JSON file; print its problems;
    return an exit code (1 when any)."""
    with open(path) as fh:
        problems = check(json.load(fh))
    for problem in problems:
        print(f"{path}: {problem}")
    return 1 if problems else 0
