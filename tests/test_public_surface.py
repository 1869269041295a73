"""Every public name of `ldlab` has a reader: the program, the benchmark or the acceptance tests.

The rule covers every name `ldlab` exports, every public function of a module in
src/ldlab, and every public method, property, classmethod and dataclass field of
an exported class. A reader is found with `ast` in src/ldlab (outside
__init__.py), in bench/ or in tests/test_acceptance.py, and only outside the
definition it reads (a recursive call is not a reader):

- an export or a function is read as a name, an attribute or a `from ... import`
  alias;
- a member is read as an attribute, `x.member`;
- a classmethod is read only through its class name, `Class.method` or
  `module.Class.method`, so that `np.diag` is not a read of `HermitianMatrix.diag`.

A mention in a docstring or a comment is not a reader. There are no exceptions.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import pathlib

import pytest

import ldlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ldlab"
READERS = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "bench").rglob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])
MODULES = [p.stem for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _owner(node) -> str | None:
    """The name that `owner.attr` reads through: `Class` for `Class.attr` and
    `module.Class.attr`, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _reads() -> list:
    """(name, kind, owner, where) for every read in the reader files: kind is "name",
    "attr" or "import", owner the `_owner` of an attribute, and where the reader's module
    stem and the names of the definitions that enclose it, outermost first."""
    reads = []

    def visit(node, stem, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Name):
            reads.append((node.id, "name", None, (stem,) + scope))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, "attr", _owner(node.value), (stem,) + scope))
        elif isinstance(node, ast.ImportFrom):
            reads.extend((alias.name, "import", None, (stem,) + scope) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, stem, scope)

    for path in READERS:
        visit(ast.parse(path.read_text()), path.stem, ())
    return reads


READS = _reads()


def _is_read(name: str, definition: tuple, kinds=("name", "attr", "import"), owner=None) -> bool:
    """True iff some read of `name` of one of `kinds` (through `owner`, if given) lies outside
    `definition`, the (module stem, class, member) or (module stem, function) path; () for
    an export, which has no definition among the readers."""
    return any(n == name and kind in kinds and (owner is None or via == owner)
               and (not definition or where[:len(definition)] != definition)
               for n, kind, via, where in READS)


def _public_functions() -> list:
    """(module stem, name) of every public function defined in a module of src/ldlab."""
    out = []
    for stem in MODULES:
        module = importlib.import_module(f"ldlab.{stem}")
        out.extend((stem, name) for name, obj in vars(module).items()
                   if inspect.isfunction(obj) and obj.__module__ == module.__name__
                   and not name.startswith("_"))
    return out


def _exported_members() -> list:
    """(module stem, class, member, is classmethod) of every public method, property,
    classmethod and dataclass field of an exported class."""
    out = []
    for export in sorted(_exports()):
        cls = getattr(ldlab, export)
        if not inspect.isclass(cls):
            continue
        stem = cls.__module__.rsplit(".", 1)[-1]
        fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
        names = {f.name: False for f in fields}
        for name, raw in vars(cls).items():
            if isinstance(raw, (classmethod, staticmethod, property, functools.cached_property)) \
                    or inspect.isfunction(raw):
                names[name] = isinstance(raw, classmethod)
        out.extend((stem, export, name, is_cm) for name, is_cm in names.items()
                   if not name.startswith("_"))
    return out


def test_every_export_has_a_reader():
    unread = {name for name in _exports() if not _is_read(name, ())}
    assert not unread, f"exported, read by no program, bench or acceptance code: {sorted(unread)}"


def test_every_public_function_has_a_reader():
    unread = [f"{stem}.{name}" for stem, name in _public_functions()
              if not _is_read(name, (stem, name))]
    assert not unread, f"public functions read by no program, bench or acceptance code: {unread}"


def test_every_member_of_an_exported_class_has_a_reader():
    unread = [f"{cls}.{name}" for stem, cls, name, is_classmethod in _exported_members()
              if not _is_read(name, (stem, cls, name), ("attr",), cls if is_classmethod else None)]
    assert not unread, f"members read by no program, bench or acceptance code: {unread}"


@pytest.mark.parametrize("source, read", [
    ("np.diag(v)", False),                       # another object's attribute of the same name
    ("HermitianMatrix.diag(v)", True),
    ("spectral.HermitianMatrix.diag(v)", True),
])
def test_a_classmethod_is_read_through_its_class_name(source, read):
    node = ast.parse(source).body[0].value.func
    assert (node.attr == "diag" and _owner(node.value) == "HermitianMatrix") == read
