"""The scan layer runs every per-entity scan on the NumPy run rules of
``stages/partition.py`` (``run_bounds``, ``search_runs``,
``seg_accumulate``): ``stages/scans.py`` and ``stages/windows.py`` import
no pandas, call no ``groupby`` and hold no ``for`` / ``while`` statement,
and neither does ``eventspipe.sliding_window_mean``."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "mpds_ray"
LOOPS = (ast.For, ast.AsyncFor, ast.While)


def scan_layer_violations(tree: ast.AST, no_pandas: bool = True) -> list[tuple[int, str]]:
    """(line, what) of every loop statement, ``groupby`` call and (with
    ``no_pandas``) pandas import under ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, LOOPS):
            found.append((node.lineno, type(node).__name__.lower()))
        elif isinstance(node, ast.Attribute) and node.attr == "groupby":
            found.append((node.lineno, "groupby"))
        elif no_pandas and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(n.split(".")[0] == "pandas" for n in names):
                found.append((node.lineno, "import pandas"))
    return found


def _function(path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text())
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_detector_sees_loops_groupby_and_pandas():
    src = (
        "import pandas as pd\n"
        "from pandas import Series\n"
        "def f(x):\n"
        "    for i in x:\n"
        "        pass\n"
        "    while x:\n"
        "        x = x.groupby(1)\n"
        "    return [i for i in x]\n"
    )
    assert scan_layer_violations(ast.parse(src)) == [
        (1, "import pandas"), (2, "import pandas"), (4, "for"), (6, "while"), (7, "groupby"),
    ]


def test_scans_and_windows_have_no_pandas_and_no_loop():
    found = {
        rel: v
        for rel in ("stages/scans.py", "stages/windows.py")
        if (v := scan_layer_violations(ast.parse((PACKAGE / rel).read_text())))
    }
    assert not found, f"per-entity loops or pandas in the scan layer: {found}"


def test_sliding_window_mean_has_no_loop():
    fn = _function(PACKAGE / "pipelines" / "eventspipe.py", "sliding_window_mean")
    assert not scan_layer_violations(fn, no_pandas=False)
