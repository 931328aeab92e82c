"""Every top-level function and class in the library has a library caller
or is exported, and every layer function the benchmark traces exists.

A helper only tests call belongs in the tests (``oracles.py`` holds the
reference implementations); one nobody calls belongs nowhere.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "preflattice"


def _names(node):
    """Names a statement loads, imports or reads as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_library_name_has_a_library_caller_or_an_export():
    defined = []  # (module, name) of each top-level function and class
    uses = []  # (module, name of the enclosing definition or None, names used)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.append((path.stem, owner))
            uses.append((path.stem, owner, _names(stmt)))
    # a definition's own body does not count as its caller
    dead = [
        f"{mod}.{name}" for mod, name in defined
        if not any(name in names and (m, owner) != (mod, name) for m, owner, names in uses)
    ]
    assert not dead, f"no library caller and no export: {', '.join(dead)}"


def test_every_traced_layer_function_resolves():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    layer_funcs = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYER_FUNCS" for t in node.targets)
    )
    missing = [
        f"{layer}.{name}"
        for layer, names in layer_funcs.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"preflattice.{layer}"), name, None))
    ]
    assert not missing, f"traced but not defined: {', '.join(missing)}"
