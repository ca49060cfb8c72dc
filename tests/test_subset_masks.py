"""Element and arrow subsets are boolean masks: no frozenset is built in the package.

A subset computed as a mask and returned as a frozenset has to be turned back
into a mask by the next predicate that reads it; this scan names every place
that builds one.  It reads the sources with ``ast`` only: a ``frozenset(...)``
call under ``src/germlab/`` must sit inside one of the set-level reference
functions of ``ALLOWED``, named by their qualified names (class, then
function), or inside a function nested in one of them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germlab"
MODULES = sorted(PACKAGE.glob("*.py"))
# principal filters are the set-level oracle of tight.ultrafilters_maximal;
# idempotent_set is read by the benchmark harness
ALLOWED = {"principal_filter", "InverseSemigroup.idempotent_set"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def frozenset_calls(source: str) -> list[tuple[str, int]]:
    """(qualified name of the enclosing definitions, line) of every
    ``frozenset(...)`` call; the module level is the empty name."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "frozenset":
            found.append((".".join(scope), node.lineno))
        inner = scope + (node.name,) if isinstance(node, SCOPES) else scope
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def allowed(scope: str) -> bool:
    """Inside an allowed definition, or a definition nested in one."""
    return any(scope == name or scope.startswith(name + ".") for name in ALLOWED)


def test_the_scan_finds_a_frozenset_call():
    source = ("X = frozenset()\n"
              "def principal_filter(E, e):\n    return frozenset(E)\n"
              "def principal_filter_of(E):\n    return frozenset(E)\n"
              "class InverseSemigroup:\n"
              "    def idempotent_set(self):\n        return frozenset(self.e)\n"
              "    def centralizer(self):\n"
              "        def members():\n            return frozenset(self.z)\n"
              "        return members()\n"
              "def principal_filter(E):\n"
              "    def each():\n        return [frozenset(s) for s in E]\n"
              "    return each()\n"
              "def f(s):\n    return set(s), s.frozenset(), frozenset\n")
    calls = frozenset_calls(source)
    assert calls == [("", 1), ("principal_filter", 3), ("principal_filter_of", 5),
                     ("InverseSemigroup.idempotent_set", 8),
                     ("InverseSemigroup.centralizer.members", 11),
                     ("principal_filter.each", 15)]
    assert [scope for scope, _ in calls if not allowed(scope)] == [
        "", "principal_filter_of", "InverseSemigroup.centralizer.members"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_subsets_are_masks_outside_the_set_oracles(path):
    stray = [f"{path.name}:{line} in {scope or 'module'}"
             for scope, line in frozenset_calls(path.read_text(encoding="utf-8"))
             if not allowed(scope)]
    assert stray == []
