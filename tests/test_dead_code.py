"""Every top-level function, class and assigned name in the library has a
library reader or is exported, every defaulted parameter is set by some
call, every layer function the benchmark traces exists, and the library
runs on the standard library alone.

A helper only tests call belongs in the tests (``oracles.py`` holds the
reference implementations); one nobody calls belongs nowhere. A default
no call overrides is a constant: it goes into the body.
"""

import ast
import importlib
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "preflattice"


def _names(node):
    """Names a statement loads, imports or reads as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _assigned(stmt):
    """Names a top-level assignment binds, dunder names such as
    ``__all__`` and ``__version__`` left out: the interpreter and tools
    read those."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [
        sub.id for target in targets for sub in ast.walk(target)
        if isinstance(sub, ast.Name) and not (sub.id.startswith("__") and sub.id.endswith("__"))
    ]


def test_every_library_name_has_a_library_caller_or_an_export():
    defined = []  # (module, name) of each top-level function, class and assigned name
    uses = []  # (module, name of the enclosing definition or None, names used)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.append((path.stem, owner))
            defined += [(path.stem, name) for name in _assigned(stmt)]
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


def test_library_imports_no_numpy_and_declares_no_dependency():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.append(path.name)
    assert not importers, f"numpy imported by: {', '.join(importers)}"
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def _defaulted_params():
    """(call name, label, parameter, positional index or None) for every
    defaulted parameter of a library function. A method is called by its
    own name and a class by its name, which calls ``__init__`` or
    ``__new__``; a method's positional index does not count ``self`` or
    ``cls``. Keyword-only parameters have no index."""
    params = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(sub): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for sub in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(id(node))
            name = cls if node.name in ("__init__", "__new__") else node.name
            label = f"{cls}.{node.name}" if cls else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                params.append((name, label, positional[i].arg, i - bool(cls)))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    params.append((name, label, arg.arg, None))
    return params


def _calls():
    """(callee name, positional count, keyword names) of every call in the
    library, the tests and the benchmark. A call that unpacks ``*args`` or
    ``**kwargs`` reads as one that sets every parameter."""
    calls = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                keywords = {k.arg for k in node.keywords}
                if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                    calls.append((name, math.inf, None))
                else:
                    calls.append((name, len(node.args), keywords))
    return calls


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = _calls()
    unset = [
        f"{label}.{param}"
        for name, label, param, index in _defaulted_params()
        if not any(
            callee == name and (keywords is None or param in keywords
                                or index is not None and count > index)
            for callee, count, keywords in calls
        )
    ]
    assert not unset, f"no call sets: {', '.join(unset)}"
