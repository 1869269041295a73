"""Every name `ldlab` exports has a reader: the program, the benchmark or the acceptance tests.

A reader is a name, an attribute or a `from ... import` alias, found with `ast` in
src/ldlab (outside __init__.py), in bench/ or in tests/test_acceptance.py. A mention
in a docstring or a comment is not one. The names in KEPT have no reader; each says
why it stays.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ldlab"
READERS = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "bench").rglob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

KEPT = {
    "ld_space": "H_r, the paper's r-th left-definite space",
    "ld_inner": "<x, y>_r = <A^{r/2} x, A^{r/2} y>, the inner product that defines H_r",
    "jacobi_spectrum": "the Jacobi eigenvalue law n(n + a + b + 1), computed nowhere else",
    "laguerre_apply_A": "A^n = (l + k)^n on Laguerre coefficients, computed nowhere else",
    "wronskian_form": "the p-modified Wronskian at a node, computed nowhere else",
}


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
    unread = _exports() - _read_names() - KEPT.keys()
    assert not unread, f"exported, read by no program, bench or acceptance code: {sorted(unread)}"


def test_kept_names_are_exported_and_unread():
    assert KEPT.keys() <= _exports()
    assert not KEPT.keys() & _read_names(), "a KEPT name now has a reader: drop it from KEPT"
