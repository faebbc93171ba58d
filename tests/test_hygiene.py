"""Source hygiene checks that need no linter: every imported name is used."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "envqueue").glob("*.py"))


def unused_imports(path: Path) -> list:
    """(line, name) of each name that `path` imports and never references. `from __future__`
    imports, names listed in `__all__` and lines marked `# noqa: F401` are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            # `import a.b` binds `a`
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from math import e  # noqa: F401\n"
        "from dataclasses import field\n"
        "__all__ = ['tau']\n"
        "print(os.sep, pi)\n"
    )
    assert unused_imports(path) == [(5, "field")]
