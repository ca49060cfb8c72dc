"""Equivalence relations and congruences on a finite inverse semigroup.

Covers the maximal idempotent-separating congruence (mu), the minimum group
congruence (sigma), kernels, quotients and split transversals for the
extension of the centralizer by the fundamental quotient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import NotACongruence, SearchBudgetExceeded, StructureError
from .semigroups import InverseSemigroup, validate_inverse_semigroup

TRANSVERSAL_BUDGET = 10**6


class UnionFind:
    """Disjoint sets over 0..size-1, merged in place (path halving)."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def roots(self) -> np.ndarray:
        """The root of every element, as an index array."""
        return np.array([self.find(x) for x in range(len(self.parent))], dtype=np.int64)

    def blocks(self) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


@dataclass(frozen=True)
class Relation:
    """An equivalence relation stored as a canonical partition.

    Blocks are sorted tuples ordered by least element; `block_of` gives O(1)
    membership queries.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]

    @staticmethod
    def from_blocks(size: int, blocks) -> "Relation":
        canon = sorted(tuple(sorted(set(b))) for b in blocks if b)
        seen: list[int | None] = [None] * size
        for i, b in enumerate(canon):
            for x in b:
                if x < 0 or x >= size or seen[x] is not None:
                    raise StructureError("blocks must partition 0..size-1")
                seen[x] = i
        if any(v is None for v in seen):
            raise StructureError("blocks must cover 0..size-1")
        return Relation(tuple(canon), tuple(seen))  # type: ignore[arg-type]

    @staticmethod
    def identity(size: int) -> "Relation":
        return Relation.from_blocks(size, [(i,) for i in range(size)])

    @staticmethod
    def universal(size: int) -> "Relation":
        return Relation.from_blocks(size, [tuple(range(size))])

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    @property
    def size(self) -> int:
        return len(self.block_of)

    def refines(self, other: "Relation") -> bool:
        """Every block of self sits inside a block of other."""
        return all(len({other.block_of[x] for x in b}) == 1 for b in self.blocks)


@dataclass(frozen=True)
class QuotientMap:
    source: InverseSemigroup
    target: InverseSemigroup
    projection: tuple[int, ...]


def is_congruence(S: InverseSemigroup, R: Relation) -> bool:
    if R.size != S.size:
        raise StructureError("relation size does not match semigroup")
    for block in R.blocks:
        a = block[0]
        for b in block[1:]:
            for c in S.elements():
                if not R.related(S.mul(c, a), S.mul(c, b)):
                    return False
                if not R.related(S.mul(a, c), S.mul(b, c)):
                    return False
    return True


def congruence_witness(S: InverseSemigroup, R: Relation):
    """A quadruple (a,b,c,d) with a~b, c~d but ac !~ bd, or None."""
    for block in R.blocks:
        a = block[0]
        for b in block[1:]:
            for cblock in R.blocks:
                c = cblock[0]
                for d in cblock[1:]:
                    if not R.related(S.mul(a, c), S.mul(b, d)):
                        return (a, b, c, d)
            for c in S.elements():
                if not R.related(S.mul(c, a), S.mul(c, b)):
                    return (c, c, a, b)
                if not R.related(S.mul(a, c), S.mul(b, c)):
                    return (a, b, c, c)
    return None


def h_relation(S: InverseSemigroup) -> Relation:
    return Relation.from_blocks(S.size, S.h_partition)


def mu_relation(S: InverseSemigroup) -> Relation:
    """Maximal idempotent-separating congruence: equal conjugation on idempotents."""
    idems = sorted(S.idempotent_set)
    keys: dict[tuple[int, ...], list[int]] = {}
    for s in S.elements():
        k = tuple(S.mul(S.mul(s, e), S.inv[s]) for e in idems)
        keys.setdefault(k, []).append(s)
    mu = Relation.from_blocks(S.size, keys.values())
    if not is_congruence(S, mu):
        raise StructureError("mu failed its congruence postcondition")
    if not is_idempotent_separating(S, mu):
        raise StructureError("mu failed idempotent separation")
    if not mu.refines(h_relation(S)):
        raise StructureError("mu is not contained in the H relation")
    return mu


def is_idempotent_separating(S: InverseSemigroup, R: Relation) -> bool:
    idems = S.idempotent_set
    return all(len([x for x in block if x in idems]) <= 1 for block in R.blocks)


def kernel_of(S: InverseSemigroup, R: Relation) -> frozenset[int]:
    """Union of blocks containing an idempotent."""
    idems = S.idempotent_set
    members = frozenset(x for block in R.blocks
                        if any(e in idems for e in block) for x in block)
    if is_congruence(S, R):
        via_pairs = frozenset(S.mul(s, S.inv[t])
                              for s in S.elements() for t in S.elements()
                              if R.related(s, t))
        if via_pairs != members:
            raise StructureError("kernel cross-check failed")
    return members


def quotient(S: InverseSemigroup, R: Relation) -> QuotientMap:
    proj = R.block_of
    k = len(R.blocks)
    table = -np.ones((k, k), dtype=np.int64)
    for a in S.elements():
        for b in S.elements():
            target = proj[S.mul(a, b)]
            if table[proj[a], proj[b]] == -1:
                table[proj[a], proj[b]] = target
            elif table[proj[a], proj[b]] != target:
                raise NotACongruence(congruence_witness(S, R))
    labels = tuple("{" + ",".join(S.label(x) for x in block) + "}" for block in R.blocks)
    T = validate_inverse_semigroup(table, labels)
    return QuotientMap(S, T, tuple(proj))


def munn_quotient(S: InverseSemigroup) -> QuotientMap:
    return quotient(S, mu_relation(S))


def is_fundamental(S: InverseSemigroup) -> bool:
    return mu_relation(S) == Relation.identity(S.size)


def is_cryptic(S: InverseSemigroup) -> bool:
    return mu_relation(S) == h_relation(S)


def sigma_relation(S: InverseSemigroup) -> Relation:
    """Minimum group congruence: s ~ t iff se = te for some idempotent e.

    The relation is the join of the kernels of s -> se over the idempotents
    e, so each kernel is merged in by one pass down a column of the table.
    """
    sets = UnionFind(S.size)
    for e in sorted(S.idempotent_set):
        first: dict[int, int] = {}
        for s, se in enumerate(S.table[:, e].tolist()):
            sets.union(first.setdefault(se, s), s)
    return Relation.from_blocks(S.size, sets.blocks())


def sigma_and_group_image(S: InverseSemigroup) -> tuple[Relation, QuotientMap]:
    """The least congruence with group quotient, and the quotient itself."""
    sigma = sigma_relation(S)
    if not is_congruence(S, sigma):
        raise StructureError("sigma failed its congruence postcondition")
    q = quotient(S, sigma)
    T = q.target
    if len(T.idempotent_set) != 1:
        raise StructureError("sigma quotient is not a group")
    e = next(iter(T.idempotent_set))
    if any(T.mul(e, x) != x or T.mul(x, e) != x for x in T.elements()):
        raise StructureError("sigma quotient has no identity")
    return sigma, q


def generated_congruence(S: InverseSemigroup, pairs) -> Relation:
    """Smallest congruence relating every given pair.

    An equivalence is a congruence exactly when each element x is compatible
    with its block root r: cx ~ cr and xc ~ rc for every c, since any two
    elements of a block are joined through the root.  Each round forms all
    2n^2 of those product pairs on the table at once, keeps the ones whose
    roots still differ, and merges them; saturation ends in the first round
    that keeps none.  A round costs O(n^2) array work plus one merge per
    distinct pair of blocks, and every round but the last merges a block.
    """
    n = S.size
    T = S.table
    sets = UnionFind(n)
    for a, b in pairs:
        sets.union(a, b)
    while True:
        root = sets.roots()
        via_x = root[T]                   # cx at [c, x], xc at [x, c]
        merged = False
        for via_root in (root[T[:, root]], root[T[root, :]]):   # c r(x); r(x) c
            apart = via_root != via_x
            for key in np.unique(via_root[apart] * n + via_x[apart]).tolist():
                sets.union(*divmod(key, n))
                merged = True
        if not merged:
            return Relation.from_blocks(n, sets.blocks())


def random_idempotent_separating_congruences(S: InverseSemigroup, *, seed: int,
                                             attempts: int = 20) -> list[Relation]:
    """Seeded sample of idempotent-separating congruences (for maximality checks).

    Random pair seeds are saturated to congruences; non-separating results are
    discarded.  The congruence lattice is too large to enumerate.
    """
    rng = random.Random(seed)
    found = []
    for _ in range(attempts):
        pairs = [(rng.randrange(S.size), rng.randrange(S.size))
                 for _ in range(rng.randint(1, 2))]
        R = generated_congruence(S, pairs)
        if is_idempotent_separating(S, R):
            found.append(R)
    return found


def find_split_transversal(S: InverseSemigroup) -> tuple[int, ...] | None:
    """A multiplicative section of the projection onto S/mu, if one exists.

    Returns a tuple indexed by mu-classes: entry i is the chosen element of
    block i.  Idempotent blocks are forced to their unique idempotent; the
    rest is exhaustive backtracking.
    """
    mu = mu_relation(S)
    q = quotient(S, mu)
    idems = S.idempotent_set
    choices: list[list[int]] = []
    for block in mu.blocks:
        block_idems = [x for x in block if x in idems]
        choices.append(block_idems if block_idems else list(block))

    budget = 1
    for c in choices:
        budget *= len(c)
        if budget > TRANSVERSAL_BUDGET:
            raise SearchBudgetExceeded(
                f"transversal search space exceeds {TRANSVERSAL_BUDGET}")

    k = len(mu.blocks)
    St, Tt = S.table, q.target.table
    picked = np.full(k, -1, dtype=np.intp)      # chosen element per class, -1 undecided

    def consistent(i: int) -> bool:
        # blocks 0..i are decided (backtracking fills them in order); check
        # every triple constraint that i completes: i as a factor, and i as
        # the product of two decided factors
        c = picked[i]
        done = picked[:i + 1]
        for p, product in ((Tt[i, :i + 1], St[c, done]), (Tt[:i + 1, i], St[done, c])):
            want = picked[p]
            if ((want >= 0) & (product != want)).any():
                return False
        a, b = np.nonzero(Tt[:i + 1, :i + 1] == i)
        return not (St[done[a], done[b]] != c).any()

    def backtrack(i: int) -> bool:
        if i == k:
            return True
        for cand in choices[i]:
            picked[i] = cand
            if consistent(i) and backtrack(i + 1):
                return True
            picked[i] = -1
        return False

    if not backtrack(0):
        return None
    r = tuple(picked.tolist())
    defect = transversal_defect(S, q, r)
    if defect is not None:
        raise StructureError("transversal is not a section" if defect[1] is None
                             else "transversal is not multiplicative")
    return r


def transversal_defect(S: InverseSemigroup, q: QuotientMap, r
                       ) -> tuple[int, int | None] | None:
    """Where r, one element per class of q, fails to be a multiplicative section.

    Scans classes x in order: (x, None) when r[x] projects to another class,
    else (x, y) for the first y with r[x] r[y] != r[xy].  None when r is a
    multiplicative section.
    """
    r = np.asarray(r, dtype=np.intp)
    proj, T = np.asarray(q.projection), q.target.table
    for x in range(len(r)):     # row by row: no |S/mu|^2 temporaries
        if proj[r[x]] != x:
            return (x, None)
        off = np.flatnonzero(S.table[r[x], r] != r[T[x]])
        if off.size:
            return (x, int(off[0]))
    return None
