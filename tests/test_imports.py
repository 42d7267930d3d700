import ast
import importlib
import os
import subprocess
import sys

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


def test_cli_and_align_leave_scipy_optimize_unloaded():
    # importing scipy.optimize after wassalign.cli grows a process from 51.2
    # to 76.9 MB RSS (Python 3.11, scipy 1.17); a 40x25x128 CLI registration
    # peaks at 78 MB, so HiGHS through linprog would add a third to every call
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import wassalign.cli\n"
        "from wassalign import CostSpec, align, new_measure, rotation_grid\n"
        "rng = np.random.default_rng(0)\n"
        "mu, nu = new_measure(rng.normal(size=(6, 2))), new_measure(rng.normal(size=(5, 2)))\n"
        "align(mu, nu, rotation_grid(4), CostSpec.squared_euclidean())\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    src = os.path.dirname(os.path.dirname(importlib.import_module("wassalign").__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"
