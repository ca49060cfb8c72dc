"""Every exception type in ``errors.py`` is used somewhere in the package.

An error that no code raises or catches is a leftover of a deleted
feature; this scan names it.  It reads the sources with ``ast`` only: each
class in ``src/germlab/errors.py`` that derives from ``StructureError``,
directly or through another such class, must be loaded, as a name or as an
attribute, by some module under ``src/germlab/`` other than ``errors.py``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "germlab"
ERRORS = PACKAGE / "errors.py"
READERS = sorted(p for p in PACKAGE.rglob("*.py") if p != ERRORS)


def structure_errors(source: str) -> list[str]:
    """The classes of a module that derive from StructureError, in order."""
    derived = {"StructureError"}
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in derived for b in node.bases):
            derived.add(node.name)
            names.append(node.name)
    return names


def read_names(source: str) -> set[str]:
    """Names a source loads, bare or as the attribute of a module."""
    nodes = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}


def test_the_scan_finds_an_unused_error():
    errors = ("class StructureError(Exception): pass\n"
              "class A(StructureError): pass\n"
              "class B(A): pass\n"
              "class C(ValueError): pass\n"
              "class D(StructureError): pass\n")
    assert structure_errors(errors) == ["A", "B", "D"]
    reader = "from .errors import A, D\nraise errors.B()\n"
    assert [n for n in structure_errors(errors) if n not in read_names(reader)] == ["A", "D"]


@pytest.fixture(scope="module")
def read_in_package():
    return set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


def test_every_structure_error_is_used(read_in_package):
    errors = structure_errors(ERRORS.read_text(encoding="utf-8"))
    assert errors
    assert [n for n in errors if n not in read_in_package] == []
