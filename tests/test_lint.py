"""Source checks that hold for the whole library."""

import ast
import pathlib

import radicant

SOURCES = sorted(pathlib.Path(radicant.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    # python -O strips assert statements; library checks raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, f"assert statements in the library: {found}"
