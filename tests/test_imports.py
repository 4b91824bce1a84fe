"""Every name a cellkit module imports is read somewhere in that module,
and every module-level function is called from somewhere."""

import ast
import os

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


# Files that may call into cellkit besides the package itself.  The
# package's __init__ only re-exports, and tests do not count as callers.
PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
READERS = sorted(os.path.join(PERFBENCH_DIR, f)
                 for f in os.listdir(PERFBENCH_DIR) if f.endswith(".py"))
# Reached only by tests until it is wired into a check (ROADMAP item 3).
UNCALLED_ALLOWED = ["complexes.cone_les_checks"]


def unreferenced_functions(modules: dict[str, str],
                           readers: list[str]) -> list[str]:
    """The module-level functions of ``modules`` (name -> source) that no
    code references, other than their own definition.  Hooks such as a
    module ``__getattr__``, which Python itself calls, are not counted.

    A function is referenced by its bare name in its own module, and from
    another module or from ``readers`` (sources) by ``from ...m import f``
    or by ``m.f``.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = set()
    for name, tree in trees.items():
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            used.update((name, node.id) for node in ast.walk(top)
                        if isinstance(node, ast.Name) and node.id != own)
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                used.update((module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                used.add((node.value.id, node.attr))
    return sorted(f"{name}.{node.name}" for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("__")
                  and (name, node.name) not in used)


def test_scan_finds_an_unreferenced_function():
    modules = {"a": "def f(): return f()\ndef g(): pass\ndef h(): pass\n"
                    "def k(): pass\nk()\n",
               "b": "from .a import g\nimport a\na.h\ndef rank(): pass\n"
                    "def __getattr__(name): pass\n"}
    assert unreferenced_functions(modules, ["x.rank\n"]) == ["a.f", "b.rank"]


def test_every_function_has_a_caller():
    modules = {m[:-3]: _read(os.path.join(PACKAGE_DIR, m)) for m in MODULES}
    readers = [_read(path) for path in READERS]
    assert unreferenced_functions(modules, readers) == UNCALLED_ALLOWED
