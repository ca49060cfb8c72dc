"""Every public function, class and class member in the package is used somewhere.

A name that only the tests call is an export that no command, suite,
benchmark or script reaches; this scan names it.  It reads the sources with
``ast`` only: a function or class defined at the top level of a module under
``src/germlab/``, its name not starting with an underscore, must be loaded,
as a name or as an attribute, somewhere under ``src/``, ``perfbench/`` or
``scripts/`` other than inside its own definition.  An import is not a load,
so the re-exports of ``__init__`` do not count.

Members of the top-level classes are scanned the same way: a method, property,
cached property or annotated field whose name does not start with an
underscore must be loaded as an attribute outside its own definition.
Members are matched by name alone, so one is missed when another class has
a used member of the same name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germlab"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = sorted(p for d in ("src", "perfbench", "scripts") for p in (ROOT / d).rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


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


def public_members(source: str) -> list[str]:
    """``Class.member`` for each method, property and annotated field of the
    module's top-level classes, private and dunder ones left out."""
    members = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, FUNCTIONS):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                members.append(f"{node.name}.{name}")
    return members


def read_attributes(source: str) -> set[str]:
    """Attributes a source loads, a function's own name inside it left out."""
    names: set[str] = set()

    def visit(node, own):
        if isinstance(node, FUNCTIONS):
            own = own | {node.name}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr not in own):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), frozenset())
    return names


def unused_members(source: str, attributes: set[str]) -> list[str]:
    return [m for m in public_members(source) if m.rpartition(".")[2] not in attributes]


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


@pytest.fixture(scope="module")
def attributes_read_anywhere():
    return set().union(*(read_attributes(p.read_text(encoding="utf-8")) for p in READERS))


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


def test_the_member_scan_finds_an_unused_member():
    source = ("@dataclass\nclass C:\n    size: int\n    spare: int\n"
              "    def used(self):\n        return self.size\n"
              "    def unused(self):\n        return self.used()\n"
              "    @property\n    def shape(self):\n        return ()\n"
              "    def walk(self, n):\n        return self.walk(n - 1) if n else 0\n"
              "    def _private(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n")
    assert public_members(source) == ["C.size", "C.spare", "C.used", "C.unused", "C.shape",
                                      "C.walk"]
    assert unused_members(source, read_attributes(source)) == ["C.spare", "C.unused",
                                                                "C.shape", "C.walk"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_public_members_are_used(path, attributes_read_anywhere):
    assert unused_members(path.read_text(encoding="utf-8"), attributes_read_anywhere) == []
