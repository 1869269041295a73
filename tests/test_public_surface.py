"""Every name `ldlab` exports has a reader: the program, the benchmark or the acceptance tests.

A reader is a name, an attribute or a `from ... import` alias, found with `ast` in
src/ldlab (outside __init__.py), in bench/ or in tests/test_acceptance.py. A mention
in a docstring or a comment is not one. There are no exceptions.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ldlab"
READERS = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "bench").rglob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _read_names() -> set:
    names = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_reader():
    unread = _exports() - _read_names()
    assert not unread, f"exported, read by no program, bench or acceptance code: {sorted(unread)}"

