"""Every bounded array pass is chunked in one place.

``semigroups.chunks`` cuts a pass's rows into slices against one budget,
``semigroups.CHUNK_ENTRIES``.  This scan reads the sources with ``ast``
only: no module under ``src/germlab/`` binds another chunk constant at
top level or defines another chunking helper, and no hand-written
``range(0, rows, step)`` loop is left outside ``chunks``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "germlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def chunk_names(source: str) -> list[str]:
    """Top-level names that size chunks: constants with CHUNK in them and
    functions whose name ends in ``chunks``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and "CHUNK" in n.id]
        elif isinstance(node, ast.FunctionDef) and node.name.endswith("chunks"):
            names.append(node.name)
    return names


def stepped_ranges(source: str) -> list[str]:
    """The functions holding a ``range(0, stop, step)`` call whose step is
    not a literal, innermost function first; "" at module level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range" and len(node.args) == 3
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == 0
                and not isinstance(node.args[2], ast.Constant)):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(ast.parse(source), "")
    return found


def test_the_scans_find_a_second_budget_and_a_hand_chunked_loop():
    source = ("LIGHT_CHUNK = 1 << 16\nCHUNK_VALUES = 1 << 15\nTABLE_CAP = 9\n"
              "def _chunks(k, width):\n"
              "    step = max(1, CHUNK_VALUES // width)\n"
              "    return [slice(lo, lo + step) for lo in range(0, k, step)]\n"
              "def scan(n):\n"
              "    for lo in range(0, n, 2):\n"
              "        pass\n")
    assert chunk_names(source) == ["LIGHT_CHUNK", "CHUNK_VALUES", "_chunks"]
    assert stepped_ranges(source) == ["_chunks"]


def test_one_budget_and_one_helper():
    found = [(path.stem, name) for path in MODULES
             for name in chunk_names(path.read_text(encoding="utf-8"))]
    assert found == [("semigroups", "CHUNK_ENTRIES"), ("semigroups", "chunks")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_hand_chunked_loop_outside_chunks(path):
    owners = stepped_ranges(path.read_text(encoding="utf-8"))
    assert owners == (["chunks"] if path.stem == "semigroups" else [])
