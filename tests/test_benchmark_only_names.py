"""The top-level names of the package that only the benchmark and the tests reach.

A name bound at the top level of a module under ``src/germlab/`` (a
function, a class or a constant) is reached when a CLI command, a declared
check or a script under ``scripts/`` loads it, directly or through other
reached names.  The scan reads the sources with ``ast`` only and matches
names alone, as the unused-name scans do: a reached definition loads every
name and attribute inside it, and each of those that a module binds is
reached in turn.  What is left is reached by nothing but ``perfbench/`` and
the tests: ROADMAP item 6(a)'s deletion list, pinned here as an exact set.
The same closure from the loads of ``perfbench/`` must reach every listed
name, so once the benchmark's traced pipeline stops importing one, this
test names it for deletion."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

BENCHMARK_ONLY = {
    # groupoids: the isomorphism search, the groups it compares, and the
    # wrappers of FiniteGroupoid.isotropy and isotropy_interior
    "FiniteGroup", "ISO_SEARCH_CAP", "fiber_group", "group_as_groupoid", "groupoid_isomorphic",
    "iso_bundle", "iso_interior",
    # congruences: the seeded sampler of idempotent-separating congruences,
    # the group image and the transversal search as standalone calls
    "SAMPLED_ATTEMPTS", "_saturate", "random_idempotent_separating_congruences",
    "find_split_transversal", "sigma_and_group_image",
    # algebra: sampled functions, convolution, the regular representation
    # and its norms, the expectation as a map
    "RegularRepresentation", "SplitMix64", "_dft", "_require_listed_sources", "_same_groupoid",
    "conditional_expectation", "convolve", "involution", "random_function", "random_functions",
    "reduced_norm", "regular_representation", "spectral_norm",
    # extensions: the public wrappers of Subject, and the transversal check
    # that only semidirect_from_split runs
    "NotATransversal", "_check_transversal", "mu_projection_hom", "semidirect_from_split",
    "sigma_cocycle", "universal_germs",
    # semigroups, semilattices, actions: element-wise and set-level lookups
    "all_filters", "centralizer_germs", "h_class_of", "natural_leq",
}


def bindings(tree: ast.Module) -> dict[str, list[ast.stmt]]:
    """Each name bound at the top level of a module -> the statements binding it."""
    out: dict[str, list[ast.stmt]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            out.setdefault(name, []).append(node)
    return out


def loaded(node: ast.AST) -> set[str]:
    """Names loaded under node, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _is_check_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "check")


def declared_checks(tree: ast.Module) -> set[str]:
    """The bodies a module declares as checks: the functions decorated with
    a ``check(...)`` call and the arguments of ``check(...)(body)``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(map(_is_check_call, node.decorator_list)):
            out.add(node.name)
        elif isinstance(node, ast.Expr) and _is_check_call(getattr(node.value, "func", None)):
            out |= {a.id for a in node.value.args if isinstance(a, ast.Name)}
    return out


def unreached(trees: dict[str, ast.Module], roots: set[str]) -> set[str]:
    """The names the modules bind that the closure of roots misses."""
    defined: dict[str, list[ast.stmt]] = {}
    for tree in trees.values():
        for name, nodes in bindings(tree).items():
            defined.setdefault(name, []).extend(nodes)
    reached, pending = set(), list(roots)
    while pending:
        name = pending.pop()
        if name in reached or name not in defined:
            continue
        reached.add(name)
        for node in defined[name]:
            pending += loaded(node) - reached
    return {name for name in defined if name not in reached and not name.startswith("__")}


def package_roots(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the CLI module loads, and the declared checks."""
    return loaded(trees["cli.py"]) | declared_checks(trees["suites.py"])


def test_the_scan_follows_calls_from_the_roots():
    source = ("LIMIT = 3\n"
              "def main():\n    return helper() + obj.method()\n"
              "def helper():\n    return LIMIT\n"
              "class Holder:\n    def method(self):\n        return spare()\n"
              "def spare():\n    return 0\n"
              "def bench_only():\n    return spare()\n"
              "@check('suite', 'name', 'statement')\ndef _body(sub):\n    return Holder\n"
              "check('suite', 'other', 'statement')(_other)\n"
              "def _other(sub):\n    return 1\n")
    tree = ast.parse(source)
    assert declared_checks(tree) == {"_body", "_other"}
    assert unreached({"m.py": tree}, {"main"}) == {"Holder", "spare", "bench_only", "_body",
                                                   "_other"}
    assert unreached({"m.py": tree}, {"main"} | declared_checks(tree)) == {"bench_only"}


def _loads(paths) -> set[str]:
    return set().union(*(loaded(ast.parse(p.read_text(encoding="utf-8"))) for p in paths))


def test_only_the_listed_names_are_reached_by_the_benchmark_and_the_tests_alone():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    found = unreached(trees, package_roots(trees) | _loads(SCRIPTS))
    assert sorted(found - BENCHMARK_ONLY) == [], "reached only by the benchmark and the tests"
    assert sorted(BENCHMARK_ONLY - found) == [], "reached by the package: take off the list"
    assert sorted(found & unreached(trees, _loads(BENCHMARK))) == [], \
        "reached by the tests alone: delete"
