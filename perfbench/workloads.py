"""The benchmark's workloads and their seeded input generator.

Three closed-loop workloads, each one caller running verify operations back
to back.  One operation is one ``run_suite(name, S, suite)`` call, plus the
``global_reports`` call that ``germlab verify corpus`` makes.

    corpus            the pinned 25-subject corpus with every suite, exactly
                      ``germlab verify corpus --suite all``
    universal-ladder  the universal suite on a seeded graph inverse semigroup,
                      symmetric:3 x group:z2 and group:z70
    structure-ladder  the tight, extension and algebra suites on symmetric:4
                      and the algebra suite on group:z70

``generate`` turns a workload and a seed into a directory of semigroup JSON
documents plus ``manifest.json``.  The seed picks the graph and relabels every
ladder subject by a permutation of its element indices; the corpus stays
pinned.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("corpus", "universal-ladder", "structure-ladder")

GRAPH_VERTICES = 7
GRAPH_EDGE_PROBABILITY = 0.3
# A graph is kept only if its semigroup has exactly this many elements and
# idempotents.  Inside the 190-215 element window the cost of one universal
# pass grows by about a quarter from the smallest to the largest graph, so
# fixing both keeps the work of a pass close across seeds.
GRAPH_ELEMENTS = 210
GRAPH_IDEMPOTENTS = 28
GRAPH_DRAW_LIMIT = 100_000

# (file name, recipe, suites run on it); the recipe is how builtins make the
# subject before relabeling.
UNIVERSAL_LADDER = (
    ("graph7.json", {"graph": None}, ("universal",)),
    ("sym3xz2.json", {"product": ["symmetric:3", "group:z2"]}, ("universal",)),
    ("z70.json", {"builtin": "group:z70"}, ("universal",)),
)
STRUCTURE_LADDER = (
    ("sym4.json", {"builtin": "symmetric:4"}, ("tight", "extension", "algebra")),
    ("z70.json", {"builtin": "group:z70"}, ("algebra",)),
)
# One germ-equivalence check on symmetric:4 takes about two minutes, so the
# traced pipeline skips it there, as the ladders skip its universal suite.
NO_CUBIC_CHECKS = {"sym4.json"}
GLOBAL = None  # subject slot of the corpus-wide global_reports operation


def path_counts(n_vertices: int, edges) -> list[int]:
    """Directed paths starting at each vertex of a DAG, the trivial path included."""
    out = [[] for _ in range(n_vertices)]
    for tail, head in edges:
        out[tail].append(head)
    memo: dict[int, int] = {}

    def count(v: int) -> int:
        if v not in memo:
            memo[v] = 1 + sum(count(w) for w in out[v])
        return memo[v]

    return [count(v) for v in range(n_vertices)]


def graph_sizes(n_vertices: int, edges) -> tuple[int, int]:
    """(elements, idempotents) of the graph inverse semigroup of a DAG.

    Elements are a zero plus the pairs of paths with a common start vertex;
    the idempotents are the zero and the pairs (x, x).
    """
    counts = path_counts(n_vertices, edges)
    return 1 + sum(c * c for c in counts), 1 + sum(counts)


def pick_graph(seed: int) -> list[list[int]]:
    """Edges of the seed's random acyclic graph with the wanted semigroup size."""
    rng = random.Random(f"graph/{seed}")
    for _ in range(GRAPH_DRAW_LIMIT):
        order = list(range(GRAPH_VERTICES))
        rng.shuffle(order)
        edges = [[order[i], order[j]]
                 for i in range(GRAPH_VERTICES) for j in range(i + 1, GRAPH_VERTICES)
                 if rng.random() < GRAPH_EDGE_PROBABILITY]
        if graph_sizes(GRAPH_VERTICES, edges) == (GRAPH_ELEMENTS, GRAPH_IDEMPOTENTS):
            return edges
    raise RuntimeError(f"no graph of the wanted size after {GRAPH_DRAW_LIMIT} draws")


def build_recipe(recipe: dict):
    """Build a subject the way germlab's builtins do; imports germlab lazily."""
    from germlab.actions import DirectedGraph, graph_inverse_semigroup
    from germlab.builtins import builtin
    from germlab.semigroups import direct_product

    if "graph" in recipe:
        edges = tuple(tuple(e) for e in recipe["graph"]["edges"])
        return graph_inverse_semigroup(DirectedGraph(recipe["graph"]["vertices"], edges))
    if "product" in recipe:
        a, b = recipe["product"]
        return direct_product(builtin(a), builtin(b))
    return builtin(recipe["builtin"])


def relabeled_document(S, rng: random.Random) -> dict:
    """The semigroup with element i moved to index perm[i], as a JSON document."""
    perm = list(range(S.size))
    rng.shuffle(perm)
    table = [[0] * S.size for _ in range(S.size)]
    labels = [""] * S.size
    for i in range(S.size):
        labels[perm[i]] = S.label(i)
        row = table[perm[i]]
        for j in range(S.size):
            row[perm[j]] = perm[S.mul(i, j)]
    return {"labels": labels, "table": table}


def document_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _corpus_file(name: str) -> str:
    return name.replace(":", "_") + ".json"


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's documents and manifest into out_dir; return the manifest.

    Corpus documents are written unrelabeled and are read only by the traced
    run, which times ``load_semigroup`` on them; the verify passes build the
    corpus with ``corpus()`` exactly as the command line does.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects, operations = [], []
    if workload == "corpus":
        from germlab.builtins import CORPUS_NAMES, builtin

        for name in CORPUS_NAMES:
            S = builtin(name)
            doc = {"labels": list(S.labels), "table": S.table.tolist()}
            (out_dir / _corpus_file(name)).write_bytes(document_bytes(doc))
            subjects.append({"name": name, "file": _corpus_file(name),
                             "recipe": {"builtin": name}, "size": S.size,
                             "idempotents": len(S.idempotent_set), "cubic_checks": True})
            operations.append([name, "all"])
    else:
        ladder = UNIVERSAL_LADDER if workload == "universal-ladder" else STRUCTURE_LADDER
        for file_name, recipe, suites in ladder:
            if "graph" in recipe:
                recipe = {"graph": {"vertices": GRAPH_VERTICES, "edges": pick_graph(seed)}}
            S = build_recipe(recipe)
            doc = relabeled_document(S, random.Random(f"relabel/{seed}/{file_name}"))
            (out_dir / file_name).write_bytes(document_bytes(doc))
            subjects.append({"name": file_name, "file": file_name, "recipe": recipe,
                             "size": S.size, "idempotents": len(S.idempotent_set),
                             "cubic_checks": file_name not in NO_CUBIC_CHECKS})
            operations += [[file_name, suite] for suite in suites]
    manifest = {"workload": workload, "seed": seed, "subjects": subjects,
                "operations": operations, "global": workload == "corpus"}
    (out_dir / "manifest.json").write_bytes(document_bytes(manifest))
    return manifest


def load_subjects(manifest: dict) -> dict:
    """Build or load every subject the way ``germlab verify`` does."""
    if manifest["workload"] == "corpus":
        from germlab.builtins import corpus

        return dict(corpus())
    from germlab.io import load_semigroup

    return {s["name"]: load_semigroup(s["file"]) for s in manifest["subjects"]}


def operations(manifest: dict) -> list:
    ops = [[GLOBAL, "all"]] if manifest["global"] else []
    return ops + manifest["operations"]


def run_operation(subjects: dict, name, suite: str) -> list:
    from germlab.suites import global_reports, run_suite

    if name is GLOBAL:
        return global_reports(suite)
    return run_suite(name, subjects[name], suite)
