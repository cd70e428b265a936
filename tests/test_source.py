"""Static checks on the package source."""

import ast
from pathlib import Path

import finfib


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so engine checks must raise
    # InvariantViolated instead
    found = []
    for path in sorted(Path(finfib.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
