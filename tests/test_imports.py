import ast
import importlib
import os
import subprocess
import sys

import pytest


@pytest.mark.parametrize(
    "module",
    ["wassalign.cli", "wassalign.normal", "wassalign.ot", "wassalign.alignment", "wassalign.crosscheck"],
)
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


def _library_trees():
    """(file name, syntax tree) of every module of the package but __init__,
    which only re-exports the public names."""
    package = os.path.dirname(importlib.import_module("wassalign").__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _names(tree):
    """Every identifier the module binds, reads or imports, and every module it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


def test_only_crosscheck_touches_scipy_or_the_cost_tensor():
    # the dense N*M*l tensor and the HiGHS LPs sit behind one module; the
    # tensor's folded costs are read nowhere else, so `align` checks no tensor
    found = {
        (name, ident)
        for name, tree in _library_trees()
        if name != "crosscheck.py"
        for ident in _names(tree)
        if ident.split(".")[0] == "scipy" or ident in ("CostTensor", "linprog", "folded")
    }
    assert found == set()


def test_only_measures_and_ot_silence_floating_point_errors():
    # pairwise_cost is the one overflow guard of a cost matrix: its callers
    # refuse the non-finite entries it returns, and enter no errstate of their own
    found = {name for name, tree in _library_trees() if "errstate" in set(_names(tree))}
    assert found == {"measures.py", "ot.py"}


def test_every_tolerance_constant_is_read():
    # a threshold that no code reads is a second home for a rule kept elsewhere
    _, tolerance = next((n, t) for n, t in _library_trees() if n == "tolerance.py")
    constants = {
        target.id
        for node in tolerance.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for _, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    }
    assert constants and constants - read == set()


def test_cli_handles_errors_only_in_main():
    # the commands raise; main alone maps the errors to exit codes
    path = importlib.import_module("wassalign.cli").__file__
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")

    def tries(node):
        return sorted(n.lineno for n in ast.walk(node) if isinstance(n, ast.Try))

    assert tries(tree) == tries(main)


def test_no_unused_imports():
    unused = []
    for name, tree in _library_trees():
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, ident) for ident in sorted(imported - used)]
    assert unused == []


ALIGN_AFTER_CLI_IMPORT = (
    "import sys\n"
    "import numpy as np\n"
    "import wassalign.cli\n"
    "from wassalign import CostSpec, align, build_cost_tensor, new_measure, rotation_grid, solve_dual\n"
    "rng = np.random.default_rng(0)\n"
    "mu, nu = new_measure(rng.normal(size=(6, 2))), new_measure(rng.normal(size=(5, 2)))\n"
    "fam, cost = rotation_grid(4), CostSpec.squared_euclidean()\n"
    "report = align(mu, nu, fam, cost)\n"
)


def _run(code):
    src = os.path.dirname(os.path.dirname(importlib.import_module("wassalign").__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return out.stdout.strip()


def test_cli_and_align_leave_scipy_optimize_unloaded():
    # no module on the CLI path imports scipy: importing scipy.sparse cost
    # 0.26 s of a 0.46 s `import wassalign.cli`, and scipy.optimize grows a
    # process from 51.2 to 76.9 MB RSS (Python 3.11, scipy 1.17).  Only the
    # cross-check LPs import it, inside the functions that solve them.  The
    # CLI's certificate and JSON report run here too
    code = ALIGN_AFTER_CLI_IMPORT + (
        "import contextlib, io, os, tempfile\n"
        "with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):\n"
        "    for name, m in (('mu.csv', mu), ('nu.csv', nu)):\n"
        "        np.savetxt(os.path.join(d, name), m.points, delimiter=',')\n"
        "    mu_csv, nu_csv, out = (os.path.join(d, f) for f in ('mu.csv', 'nu.csv', 'r.json'))\n"
        "    argv = ['align', '--mu', mu_csv, '--nu', nu_csv, '--family', 'rotations2d:4', '--out', out]\n"
        "    assert wassalign.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run(code) == "[]"


def test_joint_dual_lp_solves_after_the_cli_import():
    code = ALIGN_AFTER_CLI_IMPORT + (
        "dual = solve_dual(mu, nu, build_cost_tensor(mu, nu, fam, cost))\n"
        "print(abs(dual.value - report.value) <= 1e-9 * report.value)\n"
    )
    assert _run(code) == "True"
