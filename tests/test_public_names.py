"""Every public name of the package has a user outside the tests that pin it.

So does every public method and property that a class in `__all__`
defines itself, and every public function and class that a package
module defines at module level, whether `__all__` exports it or not.

A name in `pascalrepeats.__all__` counts as used when a package module
other than `__init__`, a demo, the acceptance suite or the benchmark's
trace table (`LAYER_STATS` in perfbench/run.py) refers to it. Its own
module counts: a class that a function there builds and returns is in
use. A helper that only its own unit tests call fails here and should
be deleted with them. The files are read with `ast`, so only real
references count: a name, an attribute or an imported name, never a
definition or a word in a string.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pascalrepeats
from test_traced_names import layer_stat_names

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pascalrepeats"


def referenced_names(path: Path) -> set[str]:
    """The identifiers a file refers to: names, attributes and imported names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def used_names() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(referenced_names, sources))
    used.update(part for name in layer_stat_names() for part in name.split("."))
    return used


def test_every_public_name_is_used_outside_its_unit_tests():
    used = used_names()
    unused = [name for name in pascalrepeats.__all__ if name not in used]
    assert not unused, f"public names only tests use: {unused}"


def test_every_public_method_of_a_public_class_is_used_outside_its_unit_tests():
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    classes = [cls for name in pascalrepeats.__all__ if isinstance(cls := getattr(pascalrepeats, name), type)]
    members = [
        (cls.__name__, attr)
        for cls in classes
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, kinds)
    ]
    assert members
    used = used_names()
    unused = [f"{owner}.{attr}" for owner, attr in members if attr not in used]
    assert not unused, f"public methods only tests use: {unused}"


def test_every_public_module_level_function_and_class_is_used_outside_its_unit_tests():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("pascalrepeats" if path.stem == "__init__" else f"pascalrepeats.{path.stem}")
        defined += [
            f"{path.stem}.{attr}"
            for attr, value in vars(module).items()
            if not attr.startswith("_")
            and isinstance(value, (types.FunctionType, type))
            and value.__module__ == module.__name__
        ]
    assert defined
    used = used_names()
    unused = [name for name in defined if name.split(".")[1] not in used]
    assert not unused, f"module-level names only tests use: {unused}"
