"""Every name a cellkit module imports is read somewhere in that module,
and every module-level function and method is called from somewhere."""

import ast
import os
import pydoc
from collections import Counter

import pytest

import cellkit

PACKAGE_DIR = os.path.dirname(cellkit.__file__)
# The package's __init__ imports names only to re-export them.
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR)
                 if f.endswith(".py") and f != "__init__.py")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in loaded]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") == [
        "a (line 2)", "os (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(_read(os.path.join(PACKAGE_DIR, module))) == []


def certify_names(source: str) -> list[int]:
    """The lines that import, bind or read the bare name CERTIFY.  A module
    that reads the flag as ``base.CERTIFY`` sees its one binding, the one
    that a test patches."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == "CERTIFY"
                   or isinstance(node, ast.alias)
                   and "CERTIFY" in (node.name, node.asname)})


def test_scan_finds_a_certify_name():
    assert certify_names("from .base import CERTIFY as C\n"
                         "from .m import CERTIFY\nif CERTIFY: pass\n"
                         "x = base.CERTIFY\n") == [1, 2, 3]


def test_only_base_names_the_certify_flag():
    found = {m: certify_names(_read(os.path.join(PACKAGE_DIR, m)))
             for m in os.listdir(PACKAGE_DIR)
             if m.endswith(".py") and m != "base.py"}
    assert {m: lines for m, lines in found.items() if lines} == {}


def test_a_stale_certify_patch_on_matrices_raises(monkeypatch):
    from cellkit import matrices
    with pytest.raises(AttributeError):
        monkeypatch.setattr(matrices, "CERTIFY", True)


def top_level_imports(source: str) -> set[str]:
    """The cellkit modules that a module imports when it loads: relative
    imports outside any function, by their first dotted name."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])
    return found


def test_scan_finds_top_level_imports():
    assert top_level_imports("from . import base\nfrom .groups import g\n"
                             "import os\nfrom os import path\n"
                             "def f():\n    from .complexes import c\n"
                             ) == {"base", "groups"}


def test_the_symbolic_layer_loads_no_linear_algebra():
    # A symbolic query compiles only what it loads, and runs no Smith pass.
    found = {m: top_level_imports(_read(os.path.join(PACKAGE_DIR, f"{m}.py")))
             for m in ("base", "groups", "symbolic", "grammar", "emcell")}
    assert found.pop("base") == set()
    assert {m: imports & {"matrices", "complexes"}
            for m, imports in found.items()} == dict.fromkeys(found, set())


# The classes whose public constructor validates, and ``cls`` for any
# value class.  Library code builds their values through the one unchecked
# door of each class (``_trusted`` or ``_assembled``); a bare call is
# allowed only in a public classmethod or function that hands the caller's
# data to the constructor (``random_matrix`` takes the caller's shape).
CONSTRUCTORS = {"IntMatrix", "GradedGroup", "ChainComplex", "ChainMap", "cls"}
PUBLIC_DOORS = {"IntMatrix.from_rows", "IntMatrix.from_json",
                "IntMatrix.diagonal", "ChainComplex.build", "ChainMap.build",
                "ChainMap.zero_map", "FgAbGroup.free", "FgAbGroup.of_orders",
                "PrimeSet.of", "PrimeSet.complement_of", "SymbolicGroup.of",
                "random_matrix"}


def constructor_calls(source: str) -> list[tuple[str, int]]:
    """(scope, line) of each call of a name in CONSTRUCTORS, where the
    scope is the dotted name of the enclosing classes and functions."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in CONSTRUCTORS):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_scan_finds_a_constructor_call():
    source = ("x = IntMatrix(1, 1, (1,))\n"
              "class C:\n"
              "    def f(cls):\n"
              "        return g(cls(), IntMatrix._trusted(0, 0, ()))\n"
              "def h():\n"
              "    return [ChainMap(a, b) for a in ()], GradedGroup.of({})\n")
    assert constructor_calls(source) == [("", 1), ("C.f", 4), ("h", 6)]


def test_library_values_take_the_unchecked_doors():
    found = [f"{m}:{line} {scope}" for m in MODULES
             for scope, line in constructor_calls(
                 _read(os.path.join(PACKAGE_DIR, m)))
             if scope not in PUBLIC_DOORS]
    assert found == []


# Files that may call into cellkit besides the package itself.  The
# package's __init__ only re-exports, and tests do not count as callers.
PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
READERS = sorted(os.path.join(PERFBENCH_DIR, f)
                 for f in os.listdir(PERFBENCH_DIR) if f.endswith(".py"))


def _base_names(base: ast.expr, classes: dict) -> set[str]:
    """The attribute names of a base class: its methods and those of its
    own bases when ``classes`` (name -> ClassDef) defines it, else those
    of the object its dotted name locates, if any."""
    node = classes.get(ast.unparse(base))
    if node is not None:
        names = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        for b in node.bases:
            names |= _base_names(b, classes)
        return names
    return set(dir(pydoc.locate(ast.unparse(base))))


def unreferenced_functions(modules: dict[str, str],
                           readers: list[str]) -> list[str]:
    """The module-level functions and the methods of ``modules`` (name ->
    source) that no code references, other than their own definition.
    Hooks that Python or a base class calls are not counted: dunders, a
    module ``__getattr__``, and overrides of a base-class method.

    A function is referenced by its bare name in its own module, and from
    another module or from ``readers`` (sources) by ``from ...m import f``
    or by ``m.f``.  A method is referenced by ``.name`` on anything.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reader_trees = [ast.parse(source) for source in readers]
    used = set()
    for name, tree in trees.items():
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            used.update((name, node.id) for node in ast.walk(top)
                        if isinstance(node, ast.Name) and node.id != own)
    attrs = Counter()
    for tree in [*trees.values(), *reader_trees]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                used.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] += 1
                if isinstance(node.value, ast.Name):
                    used.add((node.value.id, node.attr))
    classes = {node.name: node for tree in trees.values()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if (not node.name.startswith("__")
                        and (name, node.name) not in used):
                    out.append(f"{name}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                inherited = set()
                for base in node.bases:
                    inherited |= _base_names(base, classes)
                for f in node.body:
                    if (isinstance(f, ast.FunctionDef)
                            and not f.name.startswith("__")
                            and f.name not in inherited
                            and attrs[f.name] == sum(
                                isinstance(a, ast.Attribute)
                                and a.attr == f.name for a in ast.walk(f))):
                        out.append(f"{name}.{node.name}.{f.name}")
    return sorted(out)


def test_scan_finds_an_unreferenced_function():
    modules = {"a": "def f(): return f()\ndef g(): pass\ndef h(): pass\n"
                    "def k(): pass\nk()\n"
                    "class C(ValueError):\n"
                    "    def m(self): return self.m()\n"
                    "    def n(self): pass\n"
                    "    def with_traceback(self): pass\n"
                    "    def __str__(self): pass\n"
                    "class D(C):\n"
                    "    def n(self): pass\n"
                    "    def o(self): pass\n",
               "b": "from .a import g\nimport a\na.h\ndef rank(): pass\n"
                    "def __getattr__(name): pass\nx = y.o\n"}
    assert unreferenced_functions(modules, ["x.rank\n"]) == [
        "a.C.m", "a.C.n", "a.f", "b.rank"]


def test_every_function_has_a_caller():
    modules = {m[:-3]: _read(os.path.join(PACKAGE_DIR, m)) for m in MODULES}
    readers = [_read(path) for path in READERS]
    assert unreferenced_functions(modules, readers) == []
