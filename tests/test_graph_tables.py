"""Graph inverse semigroups from the path tables against the product they replaced.

``actions.graph_inverse_semigroup`` numbers the paths once and multiplies by
gathers of two tables over path indices.  The reference here is the
product it replaced, kept as the test's oracle: paths as edge tuples, and
every product of two elements x y* and u v* found by comparing the middle
paths y and u in Python.  Tables and labels must agree byte for byte.  The
size refusal reads the element count off the graph before any path is
listed, so graphs whose path lists would not fit are refused at once.
"""

import json
import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

from germlab.actions import DirectedGraph, graph_inverse_semigroup
from germlab.builtins import NAMED_GRAPHS
from germlab.cli import main
from germlab.errors import CyclicGraph, SizeBudgetExceeded

from test_order_congruence_tables import GRAPH7


@dataclass(frozen=True)
class EdgePath:
    """Edge sequence composed right-to-left: entry i+1 feeds entry i."""

    rng: int    # head vertex of the whole path
    src: int    # tail vertex
    edges: tuple[int, ...]

    def extends(self, other: "EdgePath") -> bool:
        return self.rng == other.rng and self.edges[:len(other.edges)] == other.edges

    def remainder_after(self, prefix: "EdgePath") -> "EdgePath":
        return EdgePath(prefix.src, self.src, self.edges[len(prefix.edges):])

    def then(self, other: "EdgePath") -> "EdgePath":
        return EdgePath(self.rng, other.src, self.edges + other.edges)


def reference_graph_semigroup(graph: DirectedGraph) -> tuple[np.ndarray, list[str]]:
    """The table and labels by the pairwise product of path objects."""
    paths = [EdgePath(v, v, ()) for v in range(graph.n_vertices)]
    frontier = list(paths)
    while frontier:
        frontier = [EdgePath(p.rng, tail, p.edges + (i,)) for p in frontier
                    for i, (tail, head) in enumerate(graph.edges) if head == p.src]
        paths += frontier
    elements = [None] + [(x, y) for x in paths for y in paths if x.src == y.src]
    index = {pair: i for i, pair in enumerate(elements)}

    def mul(a, b):
        if a is None or b is None:
            return 0
        (x, y), (u, v) = a, b
        if u.extends(y):
            return index[(x.then(u.remainder_after(y)), v)]
        if y.extends(u):
            return index[(x, v.then(y.remainder_after(u)))]
        return 0

    table = np.array([[mul(a, b) for b in elements] for a in elements], dtype=np.int64)
    name = {p: "".join(f"e{i}" for i in p.edges) or f"v{p.rng}" for p in paths}
    labels = ["0"] + [name[x] if x == y else f"{name[x]}.{name[y]}*"
                      for x, y in elements[1:]]
    return table, labels


def random_dag(seed: int) -> DirectedGraph:
    """Up to 6 vertices, each pair joined by up to two edges from the earlier
    to the later vertex of a seeded order, the edges listed in seeded order."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    order = rng.sample(range(n), n)
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             for _ in range(rng.choice((0, 0, 0, 1, 1, 2)))]
    rng.shuffle(edges)
    return DirectedGraph(n, tuple(edges))


GRAPHS = {**{f"named-{k}": g for k, g in NAMED_GRAPHS.items()}, "graph7": GRAPH7,
          **{f"random-{seed}": random_dag(seed) for seed in range(48)}}


@pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
def test_tables_and_labels_equal_the_pairwise_product(graph):
    table, labels = reference_graph_semigroup(graph)
    S = graph_inverse_semigroup(graph)
    assert S.table.tobytes() == table.tobytes()
    assert list(S.labels) == labels
    assert S.graph is graph


def test_the_random_graphs_reach_past_a_few_elements():
    """The oracle comparison is not carried by trivial graphs alone."""
    sizes = [graph_inverse_semigroup(g).size for g in GRAPHS.values()]
    assert max(sizes) > 1000 and sum(s > 20 for s in sizes) >= 15


@pytest.mark.parametrize("graph", [
    DirectedGraph(1, ((0, 0),)),
    DirectedGraph(5, ((4, 0), (0, 1), (1, 2), (2, 3), (3, 1))),
], ids=["loop", "cycle-behind-a-tail"])
def test_a_cycle_is_refused(graph):
    """A loop, and a cycle that the topological order stops short of after
    ordering the vertices before it."""
    with pytest.raises(CyclicGraph):
        graph_inverse_semigroup(graph)


def test_the_bound_is_the_element_count():
    """A path of 46 vertices has 46 - v paths with tail v, so its semigroup
    has 1 + 1^2 + ... + 46^2 = 33512 elements, past 2^15."""
    with pytest.raises(SizeBudgetExceeded) as refused:
        graph_inverse_semigroup(DirectedGraph(46, tuple((i, i + 1) for i in range(45))))
    assert str(refused.value) == "graph inverse semigroup has 33512 elements > 32768"


@pytest.mark.parametrize("doc, count", [
    ({"vertices": 1200, "edges": [[i, i + 1] for i in range(1199)]}, 576720201),
    ({"vertices": 40, "edges": [[i, j] for i in range(40) for j in (i + 1, i + 2) if j < 40]},
     116139355505953931),
], ids=["path1200", "dag40"])
def test_graph_files_past_the_bound_exit_2_at_once(tmp_path, capsys, doc, count):
    """A long path and a DAG with Fibonacci-many paths: refused from the
    path counts alone, with no traceback and no path listed."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check", f"builtin:graph:{path}"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: graph inverse semigroup has {count} elements > 32768\n"
