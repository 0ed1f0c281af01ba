"""Checks on the library source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coinwalk"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts; runtime invariants must raise ToolkitError.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {', '.join(found)}"


def test_library_imports_only_at_module_level():
    # A deferred import inside a function hides an import cycle.
    found = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not found, f"function-level imports in the library: {', '.join(found)}"
