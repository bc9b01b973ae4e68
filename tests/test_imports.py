"""The library's modules import each other at module level only.

An import of a redeiperm module inside a function body hides a cycle
between modules (the function's module cannot import the other at the top
because the other imports it).  Standard-library imports inside functions
stay allowed: they defer a cost to the first call, as _value_digest does
for hashlib.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "redeiperm"


def _is_library(node: ast.AST) -> bool:
    """Is node an import of a redeiperm module, relative or absolute?"""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "redeiperm"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "redeiperm" for a in node.names)
    return False


def function_body_imports(source: str) -> list[int]:
    """Lines of the redeiperm imports inside a function body, nested or not."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if _is_library(node)})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_body_imports_a_library_module(path):
    assert function_body_imports(path.read_text()) == []


def test_the_check_sees_each_kind_of_library_import():
    source = ("import io\nfrom . import field_tower\n"
              "def f():\n    from .redei import spot_positions\n"
              "def g():\n    from . import redei\n"
              "def h():\n    import redeiperm.redei\n"
              "def i():\n    def inner():\n        from redeiperm import cli\n"
              "def j():\n    import hashlib\n    from contextlib import redirect_stdout\n")
    assert function_body_imports(source) == [4, 6, 8, 11]
