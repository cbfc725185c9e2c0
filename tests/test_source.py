"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import cagekit


def test_no_assert_statements_in_package():
    # python -O strips assert, so no certification step may rest on one
    sources = sorted(Path(cagekit.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
