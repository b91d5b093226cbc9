"""Rules about the package source itself."""

import ast
from pathlib import Path

import kripkit


def test_source_has_no_assert():
    # `python -O` strips assert statements, so contract checks must raise.
    found = []
    for path in sorted(Path(kripkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, found
