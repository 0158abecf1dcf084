"""Source-level rules for the package itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "charcorr"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one silently
    # stops running; every check must raise explicitly instead.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
