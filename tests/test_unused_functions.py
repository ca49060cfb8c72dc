"""Every top-level public function and class in the package is used somewhere.

A name that only the tests call is an export that no command, suite,
benchmark or script reaches; this scan names it.  It reads the sources with
``ast`` only: a function or class defined at the top level of a module under
``src/germlab/``, its name not starting with an underscore, must be loaded,
as a name or as an attribute, somewhere under ``src/``, ``perfbench/`` or
``scripts/`` other than inside its own definition.  An import is not a load,
so the re-exports of ``__init__`` do not count."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germlab"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = sorted(p for d in ("src", "perfbench", "scripts") for p in (ROOT / d).rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(source: str) -> list[str]:
    """Names of the module's top-level functions and classes, private ones left out."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def loaded_names(node: ast.AST) -> set[str]:
    """Names loaded under node, bare or as the attribute of a module."""
    nodes = [n for n in ast.walk(node)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}


def read_names(source: str) -> set[str]:
    """Names a source loads, a top-level definition's own name inside it left out."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        own = {node.name} if isinstance(node, DEFINITIONS) else set()
        names |= loaded_names(node) - own
    return names


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


def test_the_scan_finds_an_unused_definition():
    source = ("from m import g\n"
              "def f(n):\n    return f(n - 1) if n else h()\n"
              "def h():\n    return m.k()\n"
              "class C:\n    def make(self):\n        return C()\n"
              "def _private():\n    pass\n"
              "def k():\n    pass\n")
    assert public_definitions(source) == ["f", "h", "C", "k"]
    assert [n for n in public_definitions(source) if n not in read_names(source)] == ["f", "C"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_public_definitions_are_used(path, read_anywhere):
    unused = [n for n in public_definitions(path.read_text(encoding="utf-8"))
              if n not in read_anywhere]
    assert unused == []
