"""Every name a module of the package imports at top level is read by it.

The benchmark patches a few names in the modules it traces; such an import
stays, marked by a ``noqa`` comment that names perfbench.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "countqe").glob("*.py")
    if path.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    """The names imported at the top level of ``source`` that it never reads,
    except those whose import line has a ``noqa`` comment naming perfbench."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = " ".join(lines[node.lineno - 1 : node.end_lineno])
        if "noqa" in text and "perfbench" in text:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unread_import(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_catches_an_unread_import():
    source = (
        "from .sets import DomainTag, LinearSetPresentation\n"
        "from .linalg import solve_unique  # noqa: F401 -- perfbench/layers.py patches this name\n"
        "def f(d: DomainTag):\n"
        "    return d\n"
    )
    assert unread_imports(source) == ["LinearSetPresentation (line 1)"]
