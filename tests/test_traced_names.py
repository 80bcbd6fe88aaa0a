"""Every function the benchmark's trace mode reports on is still a public function.

`perfbench/run.py --trace 1` reads per-layer statistics for the names in
its `LAYER_STATS` table, and raises a KeyError for a name the package no
longer defines. The table is read here with `ast`, without importing the
benchmark, so that removing or renaming a traced function fails here.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def layer_stat_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_STATS" for t in node.targets):
            return [name for name, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py has no LAYER_STATS table")


def test_every_traced_name_is_a_public_function_of_its_module():
    names = layer_stat_names()
    assert names
    for name in names:
        module_name, *owner_path, attr = name.split(".")
        module = importlib.import_module(f"pascalrepeats.{module_name}")
        owner = module
        for part in owner_path:
            owner = vars(owner).get(part)
            assert isinstance(owner, type) and owner.__module__ == module.__name__, name
        fn = vars(owner).get(attr)
        assert not attr.startswith("_") and isinstance(fn, types.FunctionType), name
        assert fn.__module__ == module.__name__, name
