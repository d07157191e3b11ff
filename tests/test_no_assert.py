"""No guarantee of the library rests on an ``assert``: ``python -O`` strips
them, so every invariant check must raise its own error."""

from __future__ import annotations

import ast
from pathlib import Path

import klsparse

SOURCES = sorted(Path(klsparse.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statement():
    assert len(SOURCES) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
