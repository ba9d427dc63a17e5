"""Every Ray task of the engine is defined once, at module level.

A ``@ray.remote`` function defined inside another function is a new remote
function on every call: the driver pickles and exports it again, and every
worker fetches and unpickles it again before running it. Per-call values
travel as task arguments instead."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "mpds_ray"

def _is_ray_remote(dec: ast.expr) -> bool:
    target = dec.func if isinstance(dec, ast.Call) else dec
    return (
        isinstance(target, ast.Attribute)
        and target.attr == "remote"
        and isinstance(target.value, ast.Name)
        and target.value.id == "ray"
    )


def nested_remote_defs(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``@ray.remote`` function defined inside
    another function."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, funcs):
                if in_function and any(_is_ray_remote(d) for d in child.decorator_list):
                    found.append((child.lineno, child.name))
                visit(child, True)
            else:
                visit(child, in_function)

    visit(ast.parse(source), False)
    return found


def test_detector_sees_nested_and_ignores_module_level():
    src = (
        "import ray\n"
        "@ray.remote\n"
        "def top(x):\n"
        "    return x\n"
        "def outer():\n"
        "    @ray.remote(num_returns=2)\n"
        "    def inner(x):\n"
        "        return x, x\n"
        "    class C:\n"
        "        def m(self):\n"
        "            @ray.remote\n"
        "            def deep():\n"
        "                pass\n"
    )
    assert nested_remote_defs(src) == [(7, "inner"), (12, "deep")]


def test_no_nested_remote_functions():
    found = {
        rel: defs
        for rel in sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py"))
        if (defs := nested_remote_defs((PACKAGE / rel).read_text()))
    }
    assert not found, f"remote functions defined inside functions: {found}"
