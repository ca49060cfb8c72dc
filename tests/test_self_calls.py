"""The package's only recursive functions are its two capped searches.

A recursion whose depth grows with the input fails past Python's recursion
limit with a traceback instead of a refusal, as a cycle check by
depth-first search did on a path of 1200 vertices.  This scan names every
function under ``src/germlab/`` that calls itself, by the dotted names of
the definitions that enclose it, and pins the list to the two searches
whose depth is bounded: ``semilattices._order_isos`` extends a partial
order isomorphism one element at a time, and
``groupoids.groupoid_isomorphic`` assigns one unit at a time, both under
a search budget.  It reads the sources with ``ast`` only: a call counts
when its callee is the function's own name, bare or as an attribute of
``self``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germlab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (*FUNCTIONS, ast.ClassDef)


def calls_itself(node: ast.AST) -> bool:
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if isinstance(f, ast.Name) and f.id == node.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == node.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"):
            return True
    return False


def self_callers(source: str) -> list[str]:
    """Dotted names of the functions in source that call themselves."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                name = prefix + child.name
                if isinstance(child, FUNCTIONS) and calls_itself(child):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_the_scan_finds_direct_recursion():
    source = ("def fact(n):\n    return n * fact(n - 1) if n else 1\n"
              "def outer(xs):\n    def walk(i):\n        return walk(i + 1)\n    return walk(0)\n"
              "class C:\n    def depth(self, n):\n        return self.depth(n - 1)\n"
              "    def size(self):\n        return len(self)\n"
              "def caller():\n    return fact(3)\n")
    assert self_callers(source) == ["fact", "outer.walk", "C.depth"]


def test_only_the_capped_searches_call_themselves():
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in self_callers(path.read_text(encoding="utf-8"))]
    assert found == ["groupoids.groupoid_isomorphic.search", "semilattices._order_isos.extend"]
