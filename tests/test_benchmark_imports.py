"""The benchmark under ``perfbench/`` imports germlab functions by name; a
refactor that deletes or renames one fails here rather than in a benchmark
run.  Its traced mode also reads attributes of what those functions return
(``len(G.comp)``, ``.units``, ``.basis``, ``unit_at_point``,
``principal_point``, ``fiber_group(...).groupoid``), so its pipeline is run
here on small subjects.  The benchmark's files are parsed and imported,
never edited."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from germlab.builtins import builtin

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


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,pairs,convolve_ops,basis_sets,filters,ultrafilters", [
    ("b2", 16, 8, 8, 2, 2), ("symmetric:3", 198, 171, 90, 7, 3), ("group:s3", 72, 36, 12, 1, 1),
])
def test_traced_pipeline_runs_and_counts_the_composable_pairs(name, pairs, convolve_ops,
                                                              basis_sets, filters, ultrafilters):
    """``groupoids.composable_pairs`` and ``groupoids.basis_sets`` add up the
    universal and the tight groupoid's pairs and basis sets (``len(G.basis)``
    counts the rows of the basis array); ``algebra.convolve_ops`` counts the
    universal one's pairs, which each convolution sums over; the
    ``semilattices`` counts are the lengths of ``all_filters`` and
    ``ultrafilters``."""
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracing._pipeline(tracer, name, builtin(name), cubic_checks=True)
    assert tracer.counts["groupoids.composable_pairs"] == pairs
    assert tracer.counts["algebra.convolve_ops"] == convolve_ops
    assert tracer.counts["groupoids.basis_sets"] == basis_sets
    assert tracer.counts["semilattices.filters"] == filters
    assert tracer.counts["semilattices.ultrafilters"] == ultrafilters
