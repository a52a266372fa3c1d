"""No test module needs scipy to be imported.

The library, the pipeline and the brute-force oracles need numpy alone.
Only the tests that take a reference or a statistic from scipy import it,
inside the test, through ``pytest.importorskip``: where scipy is not
installed exactly those tests skip, and every other test still runs.  A
top-level scipy import would instead fail the whole module at collection.
"""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
IMPORTERS = {"importorskip", "import_module", "__import__"}


def import_time_nodes(node):
    """``node`` and the nodes under it that run when its module is imported:
    all but the bodies of functions and lambdas."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        children = (getattr(node, "decorator_list", []) + args.defaults
                    + [d for d in args.kw_defaults if d is not None])
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from import_time_nodes(child)


def scipy_imports(source):
    """Line numbers of the scipy imports that run when ``source`` is
    imported: import statements, and calls such as
    ``pytest.importorskip("scipy.stats")``."""
    lines = []
    for node in import_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            names = [node.args[0].value] if name in IMPORTERS else []
        else:
            continue
        if any(n == "scipy" or str(n).startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


def test_no_test_module_imports_scipy_at_import_time():
    found = {path.name: scipy_imports(path.read_text(encoding="utf-8"))
             for path in TEST_MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source, lines", [
    ("import scipy.sparse as sp\n", [1]),
    ("import numpy\nfrom scipy import stats\n", [2]),
    ("import pytest\nsps = pytest.importorskip('scipy.stats')\n", [2]),
    ("class T:\n    from scipy.optimize import minimize\n", [2]),
    ("try:\n    import scipy\nexcept ImportError:\n    pass\n", [2]),
    ("@dec(__import__('scipy'))\ndef f():\n    pass\n", [1]),
    ("def f(kstest=__import__('scipy.stats')):\n    pass\n", [1]),
    ("def f():\n    import scipy\n", []),
    ("def f():\n    return pytest.importorskip('scipy.optimize').minimize\n", []),
    ("import scipyx\nfrom . import scipy\nf('scipy')\n", []),
], ids=["import", "from-import", "importorskip", "class-body", "try", "decorator",
        "default", "in-function", "importorskip-in-function", "not-scipy"])
def test_scipy_imports_finds_import_time_imports_only(source, lines):
    assert scipy_imports(source) == lines
