"""Every name a module of shellkit imports at module level is used there,
every private module-level name is read by some module of shellkit, and
every public function, class and method has a reader besides the tests,
every builder of a part that K_phi glues calls the one gadget check, no
code outside ``Complex`` reads how a complex is stored, faces are
enumerated by ``subfaces`` and one closure and count kernel alone, the
canonical JSON form is set up once, one reader turns text into a JSON
object, and every snippet of the mutation catalogue (``tests/mutants.py``)
occurs once.

The project has no linter; this keeps an import from outliving the last
caller of what it imports, and a helper from outliving its last caller.
Standard library only: it reads the modules and the benchmark with
``ast`` and never imports them.
"""

import ast
import builtins
from pathlib import Path

import pytest

from mutants import CATALOGUE

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


def combinations_readers(source: str) -> set[str]:
    """The functions and methods of ``source`` that read the name
    ``combinations``, each named by its innermost definition."""
    readers = set()
    stack = [(ast.parse(source), None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Name) and node.id == "combinations":
            readers.add(owner)
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return readers


def test_combinations_readers_finds_functions_and_methods():
    source = (
        "from itertools import combinations\nx = combinations\n"
        "def f():\n    return [combinations(a, 2) for a in b]\n"
        "class C:\n    def m(self):\n        def inner():\n            return combinations\n"
    )
    assert combinations_readers(source) == {None, "f", "inner"}


# Inside ``complex_core`` the faces of a facet are enumerated by
# ``subfaces``, and a complex's faces size by size by the one closure and
# count kernel, ``_faces_of_size``, which ``Complex.from_facets``, the
# facets-only closure and every facets-only count share.
def test_one_closure_and_count_kernel():
    core = (SRC / "complex_core.py").read_text()
    assert combinations_readers(core) == {"subfaces", "_faces_of_size"}
    assert calls_in(core, "_closure") >= {"_faces_of_size"}
    assert calls_in(core, "_f_vector_of") >= {"_faces_of_size"}
    shelling = (SRC / "shelling.py").read_text()
    assert calls_in(shelling, "_reduced_euler") == {"sum", "enumerate", "_f_vector_of"}


def function_def(source: str, function: str) -> ast.FunctionDef:
    """The module-level function ``function`` of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return node
    raise LookupError(function)


def calls_made(source: str, function: str) -> list[ast.Call]:
    """The calls inside the module-level function ``function`` of
    ``source``, nested definitions included."""
    return [n for n in ast.walk(function_def(source, function)) if isinstance(n, ast.Call)]


def attributes_read(source: str, function: str, name: str) -> set[str]:
    """The attributes that the module-level function ``function`` of
    ``source`` reads off the plain name ``name``, nested definitions
    included."""
    return {
        n.attr
        for n in ast.walk(function_def(source, function))
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == name
    }


def calls_in(source: str, function: str) -> set[str]:
    """The names called as plain names inside the module-level function
    ``function`` of ``source``, nested definitions included."""
    return {c.func.id for c in calls_made(source, function) if isinstance(c.func, ast.Name)}


def test_calls_in_finds_named_calls():
    source = "def f():\n    g(h())\n    x.k()\n    def inner():\n        m()\ndef n():\n    p()\n"
    assert calls_in(source, "f") == {"g", "h", "m"}
    with pytest.raises(LookupError):
        calls_in(source, "inner")


def test_attributes_read_finds_the_named_objects_fields():
    source = "def f(e):\n    e.a(e._b)\n    x.c\n    def inner():\n        return e.d.g\n"
    assert attributes_read(source, "f", "e") == {"a", "_b", "d"}


# ``collapse.find_removal`` holds Hachimori's conditions, and its engine,
# ``TriangleErasure``, only erases: the walk reads the engine's public
# protocol alone.
def test_the_removal_walk_reads_no_private_engine_field():
    read = attributes_read((SRC / "collapse.py").read_text(), "find_removal", "engine")
    assert {"puncture", "undo", "remaining"} <= read
    assert not [a for a in read if a.startswith("_")]


# ``shelling.verify_decomposition`` replays a shedding tree from the node's
# facets alone, so it stays a check independent of the search it verifies.
SEARCH_HELPERS = (
    "ridge_holders", "_built_state", "_shed", "_drop_holders", "_put_back",
    "_frontier", "_cofacets", "_facet_graph", "graph_connected", "_may_be_shellable",
    "_reduced_euler", "_run",
)


def test_the_decomposition_replay_calls_no_search_helper():
    source = (SRC / "shelling.py").read_text()
    assert set(SEARCH_HELPERS) <= names_read(source)
    assert calls_in(source, "verify_decomposition").isdisjoint(SEARCH_HELPERS)


# A node's state, and the prune that refutes it, come from ``_built_state``,
# which both shelling searches share, or from ``_shed``, which edits a
# node's state in place into its deletion child's.
def test_only_the_node_builders_prune():
    source = (SRC / "shelling.py").read_text()
    functions = [n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)]
    pruning = {f for f in functions if "_may_be_shellable" in calls_in(source, f)}
    assert pruning == {"_built_state", "_shed"}
    assert calls_in(source, "decide_shellable").isdisjoint(
        {"ridge_holders", "_facet_graph", "_reduced_euler", "graph_connected"}
    )


# ``reduction._check_compiled`` checks vertex links only where gluing merges
# vertices, because ``gadgets._check_gadget`` checks every link of each part.
GADGET_BUILDERS = (
    "build_one_house", "build_literal_house", "build_three_house", "build_variable_sphere", "build_O"
)


@pytest.mark.parametrize("builder", GADGET_BUILDERS)
def test_gadget_builders_call_the_one_check(builder):
    assert "_check_gadget" in calls_in((SRC / "gadgets.py").read_text(), builder)


# ``gadgets._check_gadget`` reads the free faces, χ̃ and the links off the
# ridge map and the vertex stars of the facets, and ``build_three_house`` collapses through door 1
# only: its door rotation carries that exit to doors 2 and 3.
@pytest.mark.parametrize("function", ["_check_gadget", "build_three_house"])
def test_gadget_checks_run_one_pass_and_one_exit(function):
    source = (SRC / "gadgets.py").read_text()
    calls = calls_made(source, function)
    called = {getattr(c.func, "id", None) or getattr(c.func, "attr", None) for c in calls}
    assert called.isdisjoint({"free_faces", "reduced_euler_characteristic", "vertex_links_connected"})
    exits = [ast.unparse(c) for c in calls if getattr(c.func, "id", None) == "three_house_exit"]
    assert exits == (["three_house_exit(lc, 1)"] if function == "build_three_house" else [])
    loops = [n for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert not any("three_house_exit(" in ast.unparse(loop) for loop in loops)


# ``reduction.build_K_phi`` builds every part through its ``shape`` table,
# so each gadget shape is built and checked once per compile.
def test_compile_builds_parts_through_one_table():
    calls = calls_in((SRC / "reduction.py").read_text(), "build_K_phi")
    assert "shape" in calls
    assert calls.isdisjoint(GADGET_BUILDERS)


# ``reduction._check_compiled`` checks the links of K_phi after the glue.
# A check inside the glue would miss faces added after it, such as the
# pendant triangles of ``test_compile_checks_the_link_at_each_glued_vertex``.
def test_compiled_links_are_checked_after_the_glue():
    source = (SRC / "reduction.py").read_text()
    assert "vertex_links_connected" in calls_in(source, "_check_compiled")
    assert "_check_compiled" in calls_in(source, "build_K_phi")
    assert "vertex_links_connected" not in calls_in((SRC / "gadgets.py").read_text(), "_amalgamate_with_maps")


def exception_classes(sources: list[str]) -> set[str]:
    """The classes defined at module level in ``sources`` that derive from
    a built-in exception, directly or through another class among them."""
    bases = {}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
    builtin = {name for name, v in vars(builtins).items() if isinstance(v, type)}
    found = {
        name
        for name, names in bases.items()
        if any(issubclass(getattr(builtins, b), BaseException) for b in names & builtin)
    }
    while grown := {name for name, names in bases.items() if names & found} - found:
        found |= grown
    return found


def test_exception_classes_finds_derived_errors():
    sources = [
        "class A(ValueError):\n    pass\nclass B:\n    pass\n",
        "class C(A):\n    pass\nclass D(B, RuntimeError):\n    pass\nclass E(C):\n    pass\n",
    ]
    assert exception_classes(sources) == {"A", "C", "D", "E"}


# A failed invariant is an ``InternalError`` (exit 4) and bad input a
# ``ValueError`` (exit 2); besides the input text's ``FormatError``, only
# the collapse and shelling checks and the search budget have their own.
def test_the_exception_classes_of_src():
    assert exception_classes([p.read_text() for p in SOURCES]) == {
        "FormatError",
        "InternalError",
        "CollapseError",
        "ShellingError",
        "_BudgetExceeded",
    }


# How a complex is stored, closed or facets-only, is a private matter of
# ``Complex``: no code outside the class reads its slots or calls its raw
# constructor, so every other reader goes through its methods.  The walk
# matches by attribute name, not by type, so no other class in ``src/`` may
# use these names; and it sees a raw construction only when spelt
# ``Complex(...)``, not through ``type(k)(...)`` or another class's ``cls``.
COMPLEX_SLOTS = {"_faces", "_facets", "_f_vector", "_vertices", "_dim", "_keys"}


def storage_uses(source: str) -> list[int]:
    """The lines of ``source``, outside ``class Complex``, that read a slot
    of ``Complex`` or call ``Complex(...)``."""
    lines = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "Complex":
            continue
        slot = isinstance(node, ast.Attribute) and node.attr in COMPLEX_SLOTS
        raw = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Complex"
        if slot or raw:
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_storage_uses_finds_slot_reads_and_raw_constructions():
    source = (
        "class Complex:\n    def f(self):\n        return Complex(self._faces)\n"
        "def g(k):\n    return k._facets, k.faces, k.dim\n"
        "x = Complex(None, _trusted=True)\ny = Complex.from_faces(z)._dim\n"
    )
    assert storage_uses(source) == [5, 6, 7]


def test_only_complex_touches_its_storage():
    found = {p.name: storage_uses(p.read_text()) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def keyword_uses(source: str, keyword: str) -> int:
    """The number of calls in ``source`` that pass ``keyword`` by name."""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    return sum(kw.arg == keyword for call in calls for kw in call.keywords)


# Sorted keys and compact separators are set up once, by
# ``complex_core._encode``, and every canonical JSON writer encodes through it.
def test_one_canonical_json_encoder():
    found = {p.name: keyword_uses(p.read_text(), "separators") for p in SOURCES}
    assert {name: n for name, n in found.items() if n} == {"complex_core.py": 1}


# Text becomes a JSON object in one reader, ``complex_core.read_object``,
# which ``from_json`` and ``verify`` share.
def test_one_json_object_reader():
    found = {p.name: p.read_text().count("json.loads(") for p in SOURCES}
    assert {name: n for name, n in found.items() if n} == {"complex_core.py": 1}
    core, cli = (SRC / "complex_core.py").read_text(), (SRC / "cli.py").read_text()
    loads = [c for c in calls_made(core, "read_object") if ast.unparse(c.func) == "json.loads"]
    assert len(loads) == 1
    assert "read_object" in calls_in(core, "from_json") & calls_in(cli, "_cmd_verify")


# ``from_json`` reads each facet once, in its one ``Complex.from_facets`` call.
def test_from_json_reads_each_facet_once():
    core = (SRC / "complex_core.py").read_text()
    assert "read_faces" not in calls_in(core, "from_json")
    built = [c for c in calls_made(core, "from_json") if ast.unparse(c.func) == "Complex.from_facets"]
    assert len(built) == 1


# ``tests/mutants.py`` breaks one claim at a time by replacing an exact
# snippet of source; a snippet that no longer occurs exactly once would
# break nothing, or something else.
@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_each_mutant_snippet_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
