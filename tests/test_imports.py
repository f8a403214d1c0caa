"""Source hygiene: every imported name in the package and the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "hwvqe").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
