"""Source hygiene checks that need no linter: every imported name is used,
every private top-level name is referenced, every name the benchmark's
tracer wraps exists, the model's rates are read in one place, and one function forks."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "envqueue").glob("*.py"))


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


def _top_level(path: Path):
    """(names the statement binds, names it references) per top-level statement of `path`; a
    reference is a bare name, an attribute or an imported name."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = {node.name}
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            bound = {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}
        refs = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                refs.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                refs |= {alias.name for alias in sub.names}
        yield bound, refs - bound


def unreferenced_private_names(paths) -> list:
    """(file name, name) of each private top-level name of `paths` that no other top-level
    statement of `paths` references: a leftover of deleted code."""
    statements = [(path.name, bound, refs) for path in paths for bound, refs in _top_level(path)]
    referenced = set().union(*(refs for _, _, refs in statements))
    return [(file, name) for file, bound, _ in statements for name in sorted(bound)
            if name.startswith("_") and not name.endswith("__") and name not in referenced]


def test_private_names_referenced():
    assert unreferenced_private_names(SOURCES) == []


def test_scan_finds_unreferenced_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "def _fold(n):\n"
        "    return _fold(n - 1) if n else 0\n"
        "def _used():\n"
        "    return _LIMIT\n"
        "__all__ = []\n"
    )
    (tmp_path / "b.py").write_text("from a import _used\n_used()\n")
    assert unreferenced_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [("a.py", "_fold")]


def tracer_refs() -> set:
    """The (module, attribute) pairs that perfbench/tracing.py patches, read
    from the file itself, which imports only the standard library."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {ref for refs in tracing.LAYERS.values() for ref in refs} | set(tracing.ROW_REFS)


def test_tracer_names_resolve():
    importlib.import_module("envqueue.cli")
    missing = [(module, attr) for module, attr in sorted(tracer_refs())
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_kept_imports_are_tracer_names():
    # a `# noqa: F401` import is kept only so the tracer can patch the name
    kept = []
    for path in SOURCES:
        module = "envqueue" if path.stem == "__init__" else f"envqueue.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]:
                kept += [(module, alias.asname or alias.name.split(".")[0]) for alias in node.names]
    assert kept
    assert [ref for ref in kept if ref not in tracer_refs()] == []


# the model's rates are read in one place: elsewhere in these files a rate accessor
# may be called only inside the named top-level functions and classes
RATE_ACCESSORS = {"V", "R", "arrival", "service"}
RATE_READERS = {"model.py": {"_level_moves", "JointModel"}, "numerics.py": {"_level_rates"}, "simulate.py": set(),
                "bounds.py": set()}


def rate_reads_outside(path: Path, readers) -> list:
    """(line, accessor) of each call `x.V(...)`, `x.R(...)`, `x.arrival(...)` or `x.service(...)` in
    `path` outside the top-level functions and classes named in `readers`."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if getattr(node, "name", None) in readers:
            continue
        found += [(sub.lineno, sub.func.attr) for sub in ast.walk(node) if isinstance(sub, ast.Call)
                  and isinstance(sub.func, ast.Attribute) and sub.func.attr in RATE_ACCESSORS]
    return sorted(found)


@pytest.mark.parametrize("name", sorted(RATE_READERS))
def test_rates_read_in_one_place(name):
    assert rate_reads_outside(ROOT / "src" / "envqueue" / name, RATE_READERS[name]) == []


def test_scan_finds_rate_read(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class JointModel:\n"
        "    def V(self, n):\n"
        "        return self.env.V(n)\n"
        "def _level_moves(model, n):\n"
        "    return model.arrival(n), model.service(n)\n"
        "def _blocks(model, n):\n"
        "    return model.V(n), [model.service(k) for k in range(n)]\n"
        "LAMBDA = model.arrival(0)\n"
    )
    assert rate_reads_outside(path, {"JointModel", "_level_moves"}) == [(7, "V"), (7, "service"), (8, "arrival")]


def fork_calls(paths) -> list:
    """(file name, top-level function or class) of each call of `fork` or `x.fork` in `paths`."""
    found = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [(path.name, getattr(node, "name", None)) for sub in ast.walk(node) if isinstance(sub, ast.Call)
                      and "fork" in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))]
    return found


def test_one_fork_site():
    # every process the package starts comes from the fork-join helper
    assert fork_calls(SOURCES) == [("forkjoin.py", "_fork")]


def test_scan_finds_fork_calls(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import os\n"
        "from os import fork\n"
        "def _fork():\n"
        "    return os.fork()\n"
        "class Pool:\n"
        "    def start(self):\n"
        "        return fork()\n"
        "PID = os.fork() if os.fork else 0\n"
    )
    assert fork_calls([path]) == [("module.py", "_fork"), ("module.py", "Pool"), ("module.py", None)]
