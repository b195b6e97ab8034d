"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "ebitflow"


def test_no_assert_statements():
    """Invariants raise typed errors, so they still hold under ``python -O``,
    which strips ``assert`` statements."""
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
