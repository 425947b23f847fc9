"""Every name a module of the package imports is used in that module.

An ast scan standing in for a linter: an imported name counts as used when
it appears as a name anywhere in the module, attribute roots and annotations
included. `__init__.py` is skipped, since its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

import sliding_opt

MODULES = sorted(p for p in Path(sliding_opt.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.ones(1) * pi\n"
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
