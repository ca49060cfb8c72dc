"""The benchmark under ``perfbench/`` imports germlab functions by name; a
refactor that deletes or renames one fails here rather than in a benchmark
run.  The benchmark's files are only parsed, never imported or edited."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _germlab_imports():
    """(file, module, name) for every ``from germlab... import name`` and
    (file, module, None) for every ``import germlab...``."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "germlab":
                out += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "germlab"]
    return out


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")     # a submodule, e.g. germlab.algebra
    except ImportError:
        return False
    return True


def test_every_benchmark_import_of_germlab_resolves():
    imports = _germlab_imports()
    assert any(name == "validate_groupoid" for _, _, name in imports)
    missing = [f"{path}: {module}.{name or ''}" for path, module, name in imports
               if not _resolves(module, name)]
    assert missing == []
