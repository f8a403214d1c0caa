"""Source hygiene: every imported name in the package and the tests is used,
every private name the package binds at module level is read somewhere, every
name a package module exports exists, and every layer the benchmark traces is
still there to trace."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hwvqe").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads.

    A name listed in ``__all__`` counts as read, as a re-export.
    """
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom typing import Iterator as It, Sequence\n"
                     "__all__ = ['Sequence']\nprint(sys.argv)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "It")]


def test_no_unused_imports():
    assert len(SOURCES) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == []


def _private_names(tree: ast.Module) -> dict[str, int]:
    """Line of each ``_``-prefixed name (dunders aside) a module binds at its top level."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: by itself, as an attribute, or in an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_scan_finds_an_unread_private_name():
    tree = ast.parse("_A = 1\n_B, _C = 2, 3\n__all__ = []\ndef _f():\n    return _B\n"
                     "class _K:\n    _inner = 4\nprint(_K)\n")
    unread = {name: line for name, line in _private_names(tree).items() if name not in _read_names(tree)}
    assert unread == {"_A": 1, "_C": 2, "_f": 4}


def test_no_unread_private_names():
    assert len(PACKAGE) > 5
    read = set().union(*(_read_names(ast.parse(path.read_text())) for path in SOURCES))
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE
        for name, line in _private_names(ast.parse(path.read_text())).items()
        if name not in read
    ]
    assert unread == []


def test_every_exported_name_is_defined():
    """A stale ``__all__`` entry breaks ``from hwvqe.<module> import *``."""
    assert len(PACKAGE) > 5
    stale = []
    for path in PACKAGE:
        module = importlib.import_module("hwvqe" if path.stem == "__init__" else f"hwvqe.{path.stem}")
        exported = vars(module).get("__all__", ())
        stale += [f"{path.relative_to(ROOT)}: {name}" for name in exported if not hasattr(module, name)]
    assert stale == []


def _load_tracing(monkeypatch):
    """``perfbench/tracing.py``, loaded from its file without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_is_bound(monkeypatch):
    """Each span the benchmark reports per layer is ``cli`` or wraps a function
    that exists and that a loaded hwvqe module binds, as ``Tracer.install``
    requires. A missing one would drop its metrics from the benchmark's result."""
    importlib.import_module("hwvqe.cli")  # loads every hwvqe module the command uses
    modules = [m for name, m in sys.modules.items() if name == "hwvqe" or name.startswith("hwvqe.")]
    bound = {"cli"}
    for module_name, attr, span, _ in _load_tracing(monkeypatch).BOUNDARIES:
        if module_name.startswith("hwvqe."):
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is not None and any(value is fn for m in modules for value in vars(m).values()):
                bound.add(span)
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = sorted({row["name"].rsplit(".", 1)[0] for row in layers})
    assert len(spans) > 5
    assert [span for span in spans if span not in bound] == []
