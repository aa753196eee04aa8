"""Every name a module of the package imports at top level is read by it,
and so is every private name it defines at top level or as a method."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "countqe").glob("*.py")
    if path.name != "__init__.py"
)


def _reads(tree: ast.AST) -> set:
    """The names ``tree`` reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_imports(source: str) -> list[str]:
    """The names imported at the top level of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = _reads(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def unread_private_names(source: str) -> list[str]:
    """The private names (a leading underscore, not a dunder) that
    ``source`` defines at top level, by a definition or an assignment, or
    as a method of a top-level class, and never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            defined.update((m.name, m.lineno) for m in node.body if isinstance(m, ast.FunctionDef))
    read = _reads(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unread_import(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unread_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_catches_an_unread_import():
    source = (
        "from .sets import DomainTag, LinearSetPresentation\n"
        "from .linalg import solve_unique  # noqa: F401 -- perfbench/layers.py patches this name\n"
        "def f(d: DomainTag):\n"
        "    return d\n"
    )
    assert unread_imports(source) == ["LinearSetPresentation (line 1)", "solve_unique (line 2)"]


def test_catches_an_unread_private_name():
    source = (
        "_NONE, _ONE = frozenset(), frozenset((0,))\n"
        "_UNSET: object = object()\n"
        "def _helper():\n"
        "    return _ONE\n"
        "def _unused():\n"
        "    return _UNSET\n"
        "class Program:\n"
        "    def __init__(self):\n"
        "        self._memo = _helper()\n"
        "    def _read(self):\n"
        "        return self._memo\n"
        "    def _left_over(self):\n"
        "        return self._read()\n"
    )
    assert unread_private_names(source) == ["_NONE (line 1)", "_left_over (line 12)", "_unused (line 5)"]
