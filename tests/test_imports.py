import ast
import importlib

import pytest


@pytest.mark.parametrize("module", ["wassalign.cli", "wassalign.normal"])
def test_module_imports_only_public_names(module):
    # private helpers stay inside their module: a caller that needs one
    # would fork the pipeline instead of calling the public entry point
    path = importlib.import_module(module).__file__
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wassalign")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
