"""Rules for the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivermoduli"


def test_no_assert_in_library():
    # python -O strips assert statements, so a runtime invariant written
    # as one would silently stop being checked; such checks raise
    # InternalInvariantError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
