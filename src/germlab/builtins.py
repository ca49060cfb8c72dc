"""Built-in example semigroups and the deterministic verification corpus.

Names understood by :func:`builtin`:

    b2                      five-element combinatorial Brandt semigroup
    diamond_munn            Munn semigroup of the diamond semilattice
    symmetric:<n>           partial bijections of an n-set
    clifford_chain:<v>      two order-2 groups over a 2-chain; v = identity|kill
    brandt_z2               direct product b2 x Z2
    group:<g>               g = z<n> | klein | s3
    semilattice:<s>         s = diamond | chain<n> | vee
    graph:<g>               g = vertex | path2 | parallel2 | fork, or a JSON file
    random_clifford:<k>     seeded strong semilattice of cyclic groups

The corpus is a fixed list of these, used by every verification suite; its
order and all random seeds are pinned so reports are byte-reproducible.
"""

from __future__ import annotations

import os
import random
from itertools import permutations

import numpy as np

from .errors import SizeBudgetExceeded, StructureError, UnknownName
from .actions import DirectedGraph, graph_inverse_semigroup
from .semigroups import (
    InverseSemigroup,
    direct_product,
    validate_inverse_semigroup,
)
from .semilattices import (
    Semilattice,
    munn_semigroup,
    symmetric_inverse_monoid,
    validate_semilattice,
)

# The largest n in the builtin names z<n> and chain<n>
ELEMENT_CAP = 512

DIAMOND_MEET = [
    [0, 0, 0, 0],
    [0, 1, 0, 1],
    [0, 0, 2, 2],
    [0, 1, 2, 3],
]
DIAMOND_LABELS = ("0", "a", "b", "1")
VEE_MEET = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
VEE_LABELS = ("0", "l", "r")

NAMED_GRAPHS = {
    "vertex": DirectedGraph(1, ()),
    "path2": DirectedGraph(2, ((0, 1),)),
    "parallel2": DirectedGraph(2, ((0, 1), (0, 1))),
    "fork": DirectedGraph(3, ((0, 2), (1, 2))),
}


def diamond_semilattice() -> Semilattice:
    return validate_semilattice(DIAMOND_MEET, labels=DIAMOND_LABELS)


def chain_table(n: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The meet table min(i, j) of the chain c0 < c1 < ... < c(n-1), and its labels."""
    i = np.arange(n)
    return np.minimum.outer(i, i), tuple(f"c{k}" for k in range(n))


def chain_semilattice(n: int) -> Semilattice:
    meet, labels = chain_table(n)
    return validate_semilattice(meet, labels=labels)


def brandt_b2() -> InverseSemigroup:
    # partial bijections {}, id_a, id_b, a->b, b->a of a 2-set
    table = [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 4],
        [0, 0, 2, 3, 0],
        [0, 3, 0, 0, 2],
        [0, 0, 4, 1, 0],
    ]
    return validate_inverse_semigroup(table, ("0", "a*a", "aa*", "a", "a*"))


def cyclic_group(n: int) -> InverseSemigroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_inverse_semigroup(table, tuple(f"r{i}" for i in range(n)))


def klein_group() -> InverseSemigroup:
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return validate_inverse_semigroup(table, ("1", "a", "b", "ab"))


def symmetric_group_3() -> InverseSemigroup:
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    labels = tuple("".join(map(str, p)) for p in perms)
    return validate_inverse_semigroup(table, labels)


def strong_semilattice_of_groups(E: Semilattice, groups, links) -> InverseSemigroup:
    """Union of groups over a semilattice, multiplied through linking maps.

    `groups` is one multiplication table per node; `links[(a, b)]`, for a > b,
    maps indices of group a into group b.  Links must commute along chains:
    link(b,c) o link(a,b) = link(a,c) whenever a > b > c.
    """
    n_nodes = E.size

    def link(a: int, b: int):
        if a == b:
            return lambda x: x
        return lambda x: links[(a, b)][x]

    for a in range(n_nodes):
        for b in range(n_nodes):
            for c in range(n_nodes):
                if a != b and b != c and E.leq(b, a) and E.leq(c, b):
                    for x in range(len(groups[a])):
                        if link(b, c)(link(a, b)(x)) != link(a, c)(x):
                            raise StructureError("linking maps do not commute")

    offsets = []
    total = 0
    for g in groups:
        offsets.append(total)
        total += len(g)
    table = np.zeros((total, total), dtype=np.int64)
    for a in range(n_nodes):
        for b in range(n_nodes):
            c = E.wedge(a, b)
            for x in range(len(groups[a])):
                for y in range(len(groups[b])):
                    prod = groups[c][link(a, c)(x)][link(b, c)(y)]
                    table[offsets[a] + x, offsets[b] + y] = offsets[c] + prod
    labels = tuple(f"{E.label(a)}.{x}"
                   for a in range(n_nodes) for x in range(len(groups[a])))
    return validate_inverse_semigroup(table, labels)


def clifford_chain(variant: str) -> InverseSemigroup:
    E = validate_semilattice([[0, 0], [0, 1]], zero=None, labels=("f", "e"))
    z2 = [[0, 1], [1, 0]]
    if variant == "identity":
        links = {(1, 0): (0, 1)}
    elif variant == "kill":
        links = {(1, 0): (0, 0)}
    else:
        raise UnknownName(f"clifford_chain:{variant}")
    return strong_semilattice_of_groups(E, [z2, z2], links)


def _cyclic_hom(rng: random.Random, m: int, k: int, *, injective: bool = False):
    """A homomorphism Z_m -> Z_k as an index map, seeded."""
    from math import gcd

    g = gcd(m, k)
    multipliers = [j * (k // g) for j in range(g)]
    if injective:
        multipliers = [c for c in multipliers
                       if len({(c * x) % k for x in range(m)}) == m]
        if not multipliers:
            raise StructureError(f"no injective homomorphism Z_{m} -> Z_{k}")
    c = rng.choice(multipliers)
    return tuple((c * x) % k for x in range(m))


def random_clifford(seed: int) -> InverseSemigroup:
    """A seeded strong semilattice of cyclic groups over one of four shapes."""
    rng = random.Random(0xC11F + seed)
    shape = seed % 4
    if shape == 0:
        # 2-chain with injective link: zero-free and E-unitary
        m = rng.choice([2, 3])
        E = chain_semilattice(2)
        groups = [cyclic_group(m).table.tolist(), cyclic_group(m).table.tolist()]
        links = {(1, 0): _cyclic_hom(rng, m, m, injective=True)}
        return strong_semilattice_of_groups(E, groups, links)
    if shape == 1:
        E = chain_semilattice(3)
        orders = [rng.choice([1, 2, 4]) for _ in range(3)]
        groups = [cyclic_group(m).table.tolist() for m in orders]
        l21 = _cyclic_hom(rng, orders[2], orders[1])
        l10 = _cyclic_hom(rng, orders[1], orders[0])
        links = {(2, 1): l21, (1, 0): l10,
                 (2, 0): tuple(l10[x] for x in l21)}
        return strong_semilattice_of_groups(E, groups, links)
    if shape == 2:
        E = validate_semilattice(VEE_MEET, labels=VEE_LABELS)
        orders = [1, rng.choice([2, 3]), rng.choice([2, 4])]
        groups = [cyclic_group(m).table.tolist() for m in orders]
        links = {(1, 0): tuple(0 for _ in range(orders[1])),
                 (2, 0): tuple(0 for _ in range(orders[2]))}
        return strong_semilattice_of_groups(E, groups, links)
    E = diamond_semilattice()
    orders = [1, rng.choice([2, 3]), rng.choice([2, 3]), rng.choice([2, 4])]
    groups = [cyclic_group(m).table.tolist() for m in orders]
    links = {(3, 1): _cyclic_hom(rng, orders[3], orders[1]),
             (3, 2): _cyclic_hom(rng, orders[3], orders[2]),
             (1, 0): tuple(0 for _ in range(orders[1])),
             (2, 0): tuple(0 for _ in range(orders[2])),
             (3, 0): tuple(0 for _ in range(orders[3]))}
    return strong_semilattice_of_groups(E, groups, links)


def diamond_munn() -> InverseSemigroup:
    return munn_semigroup(diamond_semilattice())


def _element_count(text: str, what: str) -> int:
    """The element count n in a builtin name, refused before anything is
    built unless 1 <= n <= ELEMENT_CAP: the longest chain, which needs all
    n elements as generators, stays far inside Light's test budget
    (``semigroups.LIGHT_BUDGET``)."""
    n = int(text)
    if not 1 <= n <= ELEMENT_CAP:
        raise SizeBudgetExceeded(f"{what} bound is 1 <= n <= {ELEMENT_CAP}, got n={n}")
    return n


def builtin(name: str) -> InverseSemigroup:
    """Construct a named example; see the module docstring for the catalog."""
    head, _, arg = name.partition(":")
    try:
        if head == "b2" and not arg:
            return brandt_b2()
        if head == "diamond_munn" and not arg:
            return diamond_munn()
        if head == "brandt_z2" and not arg:
            return direct_product(brandt_b2(), cyclic_group(2))
        if head == "symmetric":
            return symmetric_inverse_monoid(int(arg))
        if head == "clifford_chain":
            return clifford_chain(arg)
        if head == "group":
            if arg.startswith("z"):
                return cyclic_group(_element_count(arg[1:], "cyclic group"))
            if arg == "klein":
                return klein_group()
            if arg == "s3":
                return symmetric_group_3()
        if head == "semilattice":     # its meet table, validated once as a semigroup
            if arg == "diamond":
                return validate_inverse_semigroup(DIAMOND_MEET, DIAMOND_LABELS)
            if arg == "vee":
                return validate_inverse_semigroup(VEE_MEET, VEE_LABELS)
            if arg.startswith("chain"):
                return validate_inverse_semigroup(
                    *chain_table(_element_count(arg[5:], "chain semilattice")))
        if head == "graph":
            if arg in NAMED_GRAPHS:
                return graph_inverse_semigroup(NAMED_GRAPHS[arg])
            if os.path.exists(arg):
                from .io import load_graph

                return graph_inverse_semigroup(load_graph(arg))
        if head == "random_clifford":
            return random_clifford(int(arg))
    except (ValueError, KeyError) as exc:
        raise UnknownName(f"cannot build '{name}': {exc}") from exc
    raise UnknownName(f"unknown builtin '{name}'")


CORPUS_NAMES = (
    "b2",
    "diamond_munn",
    "brandt_z2",
    "symmetric:1",
    "symmetric:2",
    "symmetric:3",
    "clifford_chain:identity",
    "clifford_chain:kill",
    "graph:vertex",
    "graph:path2",
    "graph:parallel2",
    "graph:fork",
    "semilattice:diamond",
    "semilattice:chain3",
    "semilattice:vee",
    "group:z1",
    "group:z2",
    "group:z3",
    "group:z4",
    "group:klein",
    "group:s3",
    "random_clifford:0",
    "random_clifford:1",
    "random_clifford:2",
    "random_clifford:3",
)


def corpus() -> list[tuple[str, InverseSemigroup]]:
    return [(name, builtin(name)) for name in CORPUS_NAMES]
