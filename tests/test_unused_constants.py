"""Every module-level UPPER_CASE constant in the package is read somewhere.

An option that no caller sets becomes a module constant; a constant that
nothing reads is then a leftover, and this scan names it.  It reads the
sources with ``ast`` only: a name bound by a top-level assignment under
``src/germlab/`` must be loaded, as a name or as an attribute, somewhere
under ``src/`` or ``perfbench/`` other than its own assignment target."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germlab"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")])
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*\Z")


def module_constants(source: str) -> list[str]:
    """UPPER_CASE names bound by the module's top-level assignments."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and CONSTANT.match(n.id)]
    return names


def read_names(source: str) -> set[str]:
    """Names a source loads, bare or as the attribute of a module."""
    nodes = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


def test_the_scan_finds_an_unread_constant():
    source = ("A = 1\nB: int = 2\nC, D = 3, 4\nlower = 5\nprint(C, m.D)\n"
              "def f():\n    E = 6\n")
    assert module_constants(source) == ["A", "B", "C", "D"]
    assert [n for n in module_constants(source) if n not in read_names(source)] == ["A", "B"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_constants_are_read(path, read_anywhere):
    unread = [n for n in module_constants(path.read_text(encoding="utf-8"))
              if n not in read_anywhere]
    assert unread == []
