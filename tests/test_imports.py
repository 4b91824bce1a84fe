"""Every name a cellkit module imports is read somewhere in that module."""

import ast
import os

import pytest

import cellkit

PACKAGE_DIR = os.path.dirname(cellkit.__file__)
# The package's __init__ imports names only to re-export them.
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR)
                 if f.endswith(".py") and f != "__init__.py")


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
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
