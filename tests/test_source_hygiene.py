"""Every name a module of shellkit imports at module level is used there,
every private module-level name is read by some module of shellkit, and
every public function, class and method has a reader besides the tests.

The project has no linter; this keeps an import from outliving the last
caller of what it imports, and a helper from outliving its last caller.
Standard library only: it reads the modules and the benchmark with
``ast`` and never imports them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shellkit"
SOURCES = sorted(SRC.glob("*.py"))
# ``__init__`` imports names to re-export them.
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no
    expression in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom a import b, c as d\n"
        "def f(x: b) -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["d", "js"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """The module-level functions, classes and constants of ``source``
    whose names start with one underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    """The names that ``source`` loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name of ``sources``,
    a map from module name to source, that no module of them reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_definitions(source) - read
    )


def test_dead_private_names_finds_what_no_module_reads():
    sources = {
        "a": (
            "_K = 1\n_dead: int = 2\n__version__ = '1'\n"
            "def _f():\n    return _K\n"
            "class _C:\n    pass\n"
            "def _g():\n    _local = 0\n"
        ),
        "b": "import a\nfrom a import _g\nx = a._C\n",
    }
    assert dead_private_names(sources) == ["a._dead", "a._f"]


def test_no_dead_private_module_level_names():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert dead_private_names(sources) == []


def public_definitions(source: str) -> set[str]:
    """The public module-level functions and classes of ``source``, and
    ``Class.method`` for each public method of those classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {n for n in names if not n.rpartition(".")[2].startswith("_")}


def module_all(source: str) -> set[str]:
    """The names listed in the module-level ``__all__`` of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def bench_names(source: str) -> set[str]:
    """The attributes that ``source`` reads, and the attribute strings of
    its ``TARGETS`` table, such as ``Complex.remove_facet``."""
    tree = ast.parse(source)
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            names.update(row.elts[2].value for row in node.value.elts)
    return names


def only_tests_read(
    sources: dict[str, str], exported: set[str], bench: set[str]
) -> list[str]:
    """``module.name`` for each public definition of ``sources`` that no
    module of them reads (``names_read``), that is not in ``exported`` and
    that the benchmark names in ``bench`` do not hold; a method counts as
    read under its own name or as ``Class.method``."""
    known = bench.union(*map(names_read, sources.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in public_definitions(source)
        if name.rpartition(".")[2] not in known and name not in exported | bench
    )


def test_only_tests_read_finds_unread_public_names():
    sources = {
        "a": (
            "def used():\n    return 1\n"
            "def exported():\n    pass\n"
            "def traced():\n    pass\n"
            "def benched():\n    pass\n"
            "def dead():\n    pass\n"
            "class C:\n"
            "    def read(self):\n        return used()\n"
            "    def dead(self):\n        pass\n"
            "    def hooked(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": "from a import C\nx = C().read()\n",
    }
    bench = bench_names(
        "TARGETS = (('a.traced', 'a', 'traced', None), ('h', 'a', 'C.hooked', None))\n"
        "a.benched()\n"
    )
    assert bench == {"traced", "C.hooked", "benched"}
    # A definition is not a read.
    assert only_tests_read(sources, {"exported"}, bench) == ["a.C.dead", "a.dead"]


def test_no_public_name_only_tests_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    exported = module_all((SRC / "__init__.py").read_text())
    bench = set().union(
        *(bench_names(p.read_text()) for p in (ROOT / "perfbench").glob("*.py"))
    )
    assert only_tests_read(sources, exported, bench) == []


def combinations_uses(source: str) -> list[int]:
    """The lines of ``source`` that import ``itertools.combinations`` by
    name or read it as an attribute of the ``itertools`` module, under
    any alias."""
    tree = ast.parse(source)
    modules = {"itertools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "itertools")
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(a.name == "combinations" for a in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "combinations"
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_combinations_uses_finds_names_and_attributes():
    source = (
        "import itertools\nimport itertools as it\n"
        "from itertools import product, combinations as pick\n"
        "x = itertools.combinations(a, 2)\ny = it.combinations\n"
        "z = itertools.combinations_with_replacement(a, 2)\nw = other.combinations\n"
        "def f():\n    from itertools import combinations\n"
    )
    assert combinations_uses(source) == [3, 4, 5, 9]


# Faces of a facet come from ``complex_core.subfaces`` alone, so no other
# module enumerates them with ``itertools.combinations``.
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "complex_core.py"], ids=lambda p: p.name
)
def test_one_face_enumerator(path):
    assert combinations_uses(path.read_text()) == []
