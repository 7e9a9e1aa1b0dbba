"""The example scripts import only names the package still provides.

Running the examples takes minutes, so this parses each ``examples/*.py``
and resolves every name it imports from ``repro`` instead: a renamed or
deleted function breaks this test, not a reader's first run.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


def repro_imports(path):
    """Every ``(module, name)`` the script imports from ``repro``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.module, alias.name) for alias in node.names]
    return [(module, name) for module, name in found if module.split(".")[0] == "repro"]


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")
