"""Source hygiene checks that need no linter: every imported name is used,
every private top-level name is referenced, every name the benchmark's
tracer wraps exists, the model's rates are read in one place, one function forks,
ergodicity and irreducibility are each decided in one place, every field of a record (a
dataclass or a NamedTuple) is read somewhere, and every dataclass validates its fields."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "envqueue").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def _is_dataclass(node) -> bool:
    return any(getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _is_record(node) -> bool:
    """A dataclass, or a class based on `NamedTuple` or `typing.NamedTuple`."""
    return _is_dataclass(node) or any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in node.bases)


def unread_fields(declared, readers) -> list:
    """(file name, class, field) of each field of a record declared in `declared` that no file
    of `readers` reads as an attribute `x.field`."""
    read = {node.attr for path in readers for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path in declared:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                found += [(path.name, node.name, item.target.id) for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and item.target.id not in read]
    return found


def test_every_field_read():
    # a field nothing reads is a settable value or a stored result that no caller reaches
    assert unread_fields(SOURCES, SOURCES + TESTS) == []


def test_scan_finds_unread_fields(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    read: int\n"
        "    written: int\n"
        "    unread: int = 0\n"
        "    def total(self):\n"
        "        return self.read\n"
        "@dataclass\n"
        "class Config:\n"
        "    seed: int\n"
        "class Plain:\n"
        "    ignored: int\n"
        "class Row(NamedTuple):\n"
        "    seed: int\n"
        "    dropped: int\n"
        "class Other(typing.NamedTuple):\n"
        "    lost: int = 0\n"
    )
    (tmp_path / "b.py").write_text("from a import Config\nc = Config(seed=1)\nc.written = 2\nprint(c.seed)\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_fields(paths[:1], paths) == [("a.py", "Result", "written"), ("a.py", "Result", "unread"),
                                               ("a.py", "Row", "dropped"), ("a.py", "Other", "lost")]


def dataclasses_without_post_init(paths) -> list:
    """(file name, class) of each dataclass in `paths` that defines no `__post_init__`. A record
    that only holds values is a NamedTuple: `@dataclass` generates its methods with `exec` at
    every import, which is most of what the records cost a fresh process."""
    return [(path.name, node.name) for path in paths for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)]


def test_every_dataclass_validates():
    assert dataclasses_without_post_init(SOURCES) == []


def test_scan_finds_dataclass_without_post_init(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Checked:\n"
        "    seed: int\n"
        "    def __post_init__(self):\n"
        "        assert self.seed >= 0\n"
        "@dataclass\n"
        "class Held:\n"
        "    seed: int\n"
        "    def post_init(self):\n"
        "        pass\n"
        "class Row(NamedTuple):\n"
        "    seed: int\n"
    )
    assert dataclasses_without_post_init([path]) == [("module.py", "Held")]


# the ergodicity verdict is decided in one place: elsewhere no code reads `.summable`, asks
# `working_mask().any()` or compares `lam` with `mu`; every command reads `QueueMarginal.verdict`
VERDICT_DECIDERS = {"queue_marginal", "QueueMarginal"}


def _is_working_any(node) -> bool:
    """Whether `node` is a call `x.working_mask().any()`."""
    inner = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(inner, ast.Attribute) and inner.attr == "any"
            and isinstance(inner.value, ast.Call) and getattr(inner.value.func, "attr", None) == "working_mask")


def verdict_decided_outside(path: Path, deciders) -> list:
    """(line, what) of each read of `x.summable`, each call `x.working_mask().any()` and each comparison
    of the names `lam` and `mu` in `path` outside the top-level functions and classes named in `deciders`."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if getattr(node, "name", None) in deciders:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "summable":
                found.append((sub.lineno, "summable"))
            elif _is_working_any(sub):
                found.append((sub.lineno, "working_mask().any()"))
            elif isinstance(sub, ast.Compare) and {"lam", "mu"} <= {n.id for n in ast.walk(sub)
                                                                    if isinstance(n, ast.Name)}:
                found.append((sub.lineno, "lam vs mu"))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_ergodicity_decided_in_one_place(path):
    assert verdict_decided_outside(path, VERDICT_DECIDERS) == []


def test_scan_finds_verdict_decided_elsewhere(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class QueueMarginal:\n"
        "    def xi(self, n):\n"
        "        return self.summable and self.env.working_mask().any()\n"
        "def queue_marginal(model):\n"
        "    return model.env.working_mask().any()\n"
        "def build_triple(lam, mu):\n"
        "    if not lam < mu or model.working_mask().all():\n"
        "        raise ValueError(marginal.summable)\n"
        "def solve(model):\n"
        "    return model.env.working_mask().any() and 0 <= mu\n"
    )
    assert verdict_decided_outside(path, {"QueueMarginal", "queue_marginal"}) == [
        (7, "lam vs mu"), (8, "summable"), (10, "working_mask().any()")]


# whether the joint chain is irreducible is decided in one place, `reachability`: elsewhere a
# strong-component search runs only on a graph that is not the infinite joint chain, one per reader
COMPONENT_SEARCHES = {"_strong_components", "_level_graph", "_one_component", "_closed_classes", "_boundary_classes"}
COMPONENT_READERS = {
    ("model.py", "_level_graph", "_strong_components"),  # the shared search of a finite level graph
    ("separability.py", "_one_component", "_strong_components"),  # one generator matrix
    ("separability.py", "_closed_classes", "_level_graph"),  # one generator matrix
    ("separability.py", "solve_theta", "_closed_classes"),  # Qred(0), and the sum of the Qred(n)
    ("separability.py", "_boundary_classes", "_level_graph"),  # the censored boundary, the one slow-path search
    ("separability.py", "reachability", "_one_component"),  # the decision: the fast path
    ("separability.py", "reachability", "_boundary_classes"),  # the decision: the slow path
    ("numerics.py", "autonomous_environment", "_one_component"),  # the environment on its own
    ("numerics.py", "_exact_tail", "_closed_classes"),  # the tail's phases, A0 + A1 + A2
    ("numerics.py", "_exact_tail", "_boundary_classes"),  # the closed class whose level-0 states GTH solves
    ("numerics.py", "_components_below_cap", "_level_graph"),  # the chain capped at N, named in an error
}


def component_searches(paths) -> set:
    """(file, top-level function or class, search) for each call of a name in `COMPONENT_SEARCHES`."""
    found = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            found |= {(path.name, getattr(node, "name", None), sub.func.id) for sub in ast.walk(node)
                      if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in COMPONENT_SEARCHES}
    return found


def test_irreducibility_decided_in_one_place():
    assert component_searches(SOURCES) == COMPONENT_READERS


def test_scan_finds_component_searches(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def reachability(model):\n"
        "    return _level_graph(model) and model._one_component()\n"
        "def validate_model(model):\n"
        "    return [_strong_components(c) for c in _closed_classes(model)]\n"
        "COMP = _one_component(Q)\n"
    )
    assert component_searches([path]) == {("module.py", "reachability", "_level_graph"),
                                           ("module.py", "validate_model", "_strong_components"),
                                           ("module.py", "validate_model", "_closed_classes"),
                                           ("module.py", None, "_one_component")}
