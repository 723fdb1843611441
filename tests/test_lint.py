"""Source checks that hold for the whole library."""

import ast
import pathlib
import re

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


def test_no_orphan_private_helpers():
    # a module-level _name that nothing else in the package mentions is dead
    texts = {path: path.read_text() for path in SOURCES}
    orphans = []
    for path, text in texts.items():
        for node in ast.parse(text, str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                pattern = re.compile(rf"\b{re.escape(name)}\b")
                uses = sum(len(pattern.findall(t)) for t in texts.values())
                if uses < 2:
                    orphans.append(f"{path.name}:{node.lineno} {name}")
    assert not orphans, f"private helpers referenced nowhere: {orphans}"
