"""Every parameter of every function in the package is read by its body.

A parameter that nothing reads makes every caller pass a value for
nothing, and this scan names it.  It reads the sources with ``ast`` only:
each parameter of a function or lambda under ``src/germlab/`` must be
loaded as a name somewhere in the function's body, nested functions
included.  A body that calls ``super()`` with no arguments reads its first
parameter.  Check bodies declared with ``@check(...)`` are exempt, since the
registry hands every body the subject whether it reads it or not."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "germlab").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def declared_check(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "check"
               for d in getattr(node, "decorator_list", ()))


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter its function never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS) or declared_check(node):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        inner = [n for stmt in body for n in ast.walk(stmt)]
        read = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "super"
               and not n.args for n in inner):
            read |= set(params[:1])
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}({p})" for p in params if p not in read]
    return out


def test_the_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **extra):\n    return a + c\n"
              "def g(x):\n    def inner():\n        return x\n    return inner\n"
              "class E(Exception):\n    def __init__(self):\n        super().__init__('e')\n"
              "@check('suite', 'name', 'statement')\ndef _body(sub):\n    return True, ''\n"
              "h = lambda y, z: y\n")
    assert unread_parameters(source) == ["f(b)", "f(rest)", "f(extra)", "<lambda>(z)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []
