"""Equivalence relations and congruences on a finite inverse semigroup.

Covers the maximal idempotent-separating congruence (mu), the minimum group
congruence (sigma), kernels, quotients and split transversals for the
extension of the centralizer by the fundamental quotient.

Every relation is a ``Relation``, the one partition type, defined in
``semigroups`` and re-exported here.  mu, quotients and congruence
witnesses are gathers of the table: mu groups the rows of s e s* over the
idempotents e, a quotient gathers the products of block representatives
and compares them with the whole table projected, S/R's one certificate.
The largest congruence inside a relation is found by partition refinement,
each round one gather of the generators' table columns: inside H it is mu,
which certifies mu's maximality independently of its rows.  Blocks are
merged by ``join_roots``, one connected-components pass over a batch of
pairs, which sigma and the seeded sampler of idempotent-separating
congruences share; no suite calls the sampler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import NotACongruence, SearchBudgetExceeded, StructureError
from .semigroups import InverseSemigroup, Relation, chunks, detect_zero, first_index

TRANSVERSAL_BUDGET = 10**6
SAMPLED_ATTEMPTS = 20       # pair seeds saturated by random_idempotent_separating_congruences


def join_roots(root: np.ndarray, a, b) -> np.ndarray:
    """The roots after merging the blocks of a[i] and b[i] for every i.

    ``root`` gives every element's root, a root being its own, with no
    element below its root (``np.arange`` for the finest partition).  The
    result has the same form, each merged block rooted at its least element.
    A connected-components pass on the pairs' roots: each round hangs the
    larger root of every pair still apart under the smaller, follows the
    hung roots' chains to their ends, and reroots every element in one
    gather.  Parents only decrease, so no cycle forms, and each round
    removes a root.
    """
    lo, hi = root[a], root[b]
    while True:
        apart = lo != hi
        if not apart.any():
            return root
        lo, hi = np.minimum(lo, hi)[apart], np.maximum(lo, hi)[apart]
        root = root.copy()
        root[hi] = lo
        top = root[hi]
        while True:
            up = root[top]
            if (up == top).all():
                break
            top = up
        root[hi] = top
        root = root[root]
        lo, hi = root[lo], root[hi]


@dataclass(frozen=True)
class QuotientMap:
    source: InverseSemigroup
    target: InverseSemigroup
    projection: np.ndarray          # intp: the class of each element of the source


def congruence_witness(S: InverseSemigroup, R: Relation):
    """A quadruple (a,b,c,d) with a~b, c~d but ac !~ bd, or None.

    Any two related elements are joined through their block root, so it is
    enough to test the pairs (a, b) of a block root a and another member b
    of its block, in block order.  Each pair is tested against every such
    pair (c, d), giving (a, b, c, d), and then against each element c in
    turn, giving (c, c, a, b) when ca !~ cb and else (a, b, c, c) when
    ac !~ bc; the first failure in that order is returned.  The pairs run
    in ``chunks`` of rows, and are one sort of the members that are not
    their block's root, keyed by (block, member).
    """
    T, p = S.table, R.labels
    members = np.flatnonzero(R.reps[p] != np.arange(R.size))
    key = np.sort(p[members] * R.size + members)
    A, B, m = R.reps[key // R.size], key % R.size, members.size
    c = np.arange(S.size)
    for rows in chunks(m, m + S.size):
        a, b = A[rows, None], B[rows, None]
        left = p[T[c, a]] != p[T[c, b]]           # ca !~ cb at [pair, c]
        split = np.concatenate((p[T[a, A]] != p[T[b, B]], left | (p[T[a, c]] != p[T[b, c]])),
                               axis=1)
        hit = first_index(split)
        if hit is not None:
            i, j = hit
            a, b = int(A[rows.start + i]), int(B[rows.start + i])
            if j < m:
                return (a, b, int(A[j]), int(B[j]))
            return (j - m, j - m, a, b) if left[i, j - m] else (a, b, j - m, j - m)
    return None


def largest_congruence_inside(S: InverseSemigroup, R: Relation) -> tuple[Relation, int]:
    """The largest congruence contained in R, and the refinement rounds taken.

    Moore's partition refinement (Moore 1956): each round splits every block
    by the key (label of x, labels of a x and of x a for every generator a)
    and stops in the first round that splits nothing.  The result is then
    stable under translation by ``S.generators`` on either side, so under
    every product of them, which is every element; and a congruence inside R
    relates only elements with equal keys, so it survives every round.  For
    R = H this is mu, the largest congruence inside H (Howie, Fundamentals
    of Semigroup Theory, 1995, 5.3), which ``congruence.mu_maximal`` checks.
    """
    if R.size != S.size:
        raise StructureError("relation size does not match semigroup")
    T, gens = S.table, S.generators
    rounds = 0
    while True:
        rounds += 1
        p = R.labels
        finer = Relation(np.column_stack((p, p[T[gens]].T, p[T[:, gens]])))
        if finer.count == R.count:
            return R, rounds
        R = finer


def mu_relation(S: InverseSemigroup) -> Relation:
    """Maximal idempotent-separating congruence: equal conjugation on idempotents.

    That it is an idempotent-separating congruence inside H is a theorem,
    checked by ``congruence.mu_inside_h``.
    """
    T = S.table
    return Relation(T[T[:, S.idempotent_array], S.inv[:, None]])   # s e s* at [s, e]


def kernel_of(S: InverseSemigroup, R: Relation) -> np.ndarray:
    """Union of blocks containing an idempotent, as an element mask."""
    meets = np.zeros(R.count, dtype=bool)
    meets[R.labels[S.idempotent_array]] = True
    return meets[R.labels]


def related_products(S: InverseSemigroup, R: Relation) -> np.ndarray:
    """The products s t* over the related pairs s ~ t, as an element mask."""
    s, t = np.nonzero(R.labels[:, None] == R.labels)
    products = np.zeros(S.size, dtype=bool)
    products[S.table[s, S.inv[t]]] = True
    return products


def quotient(S: InverseSemigroup, R: Relation) -> QuotientMap:
    """S/R, certified by the congruence check alone (else
    ``NotACongruence`` names the first ``congruence_witness``): a homomorphic
    image of an inverse semigroup is inverse, with [s]* = [s*] (Howie,
    Fundamentals of Semigroup Theory, 1995, ch. 5).  The zero is detected on
    S/R's table (S/mu of a zero-free Clifford chain has one)."""
    proj = R.labels
    labels = tuple("{" + ",".join(S.label(x) for x in block) + "}" for block in R.blocks)
    if R.is_identity:     # S/R is S, relabeled, on the same table
        return QuotientMap(S, InverseSemigroup(S.table, S.inv, S.zero, labels, S.generators),
                           proj)
    table = proj[S.table[np.ix_(R.reps, R.reps)]]
    if not (table[proj[:, None], proj] == proj[S.table]).all():
        raise NotACongruence(congruence_witness(S, R))
    idems = np.flatnonzero(table.diagonal() == np.arange(R.count))
    T = InverseSemigroup(table, proj[S.inv[R.reps]], detect_zero(table, idems), labels)
    return QuotientMap(S, T, proj)


def is_fundamental(S: InverseSemigroup) -> bool:
    return mu_relation(S).is_identity


def sigma_relation(S: InverseSemigroup) -> Relation:
    """Minimum group congruence: s ~ t iff se = te for some idempotent e.

    s ~ se for every idempotent e, since (se)e = se, and se = te joins s to t
    through se; so the relation is the equivalence generated by the pairs
    (s, se), one components pass over the idempotent columns of the table.
    """
    E = S.idempotent_array
    s = np.repeat(np.arange(S.size), E.size)
    return Relation(join_roots(np.arange(S.size), s, S.table[:, E].ravel()))


def sigma_and_group_image(S: InverseSemigroup) -> tuple[Relation, QuotientMap]:
    """The least congruence with group quotient, and the quotient itself."""
    sigma = sigma_relation(S)
    return sigma, group_quotient(S, sigma)


def group_quotient(S: InverseSemigroup, sigma: Relation) -> QuotientMap:
    """The quotient by sigma (``quotient`` checks the congruence), checked to
    be a group: one idempotent, whose row and column are the identity's."""
    q = quotient(S, sigma)
    T = q.target
    if T.idempotent_array.size != 1:
        raise StructureError("sigma quotient is not a group")
    e, x = T.idempotent_array[0], np.arange(T.size)
    if not ((T.table[e] == x).all() and (T.table[:, e] == x).all()):
        raise StructureError("sigma quotient has no identity")
    return q


def _saturate(S: InverseSemigroup, pair_lists, separate: np.ndarray | None = None
              ) -> list[np.ndarray | None]:
    """Per list of pairs, the roots (see ``join_roots``) of the smallest
    congruence relating every pair of the list.

    The lists saturate together, on disjoint copies of S: copy c holds the
    elements c n .. c n + n - 1, so one ``join_roots`` pass per round serves
    every copy.  The smallest congruence is the equivalence generated by the
    given pairs and by their products with generators a on either side:
    every element is a product of ``S.generators``, so an equivalence
    spanned by pairs whose products with generators it relates is a
    congruence.  Each round merges the pending pairs in one pass.  The old
    roots r that it hangs under a new root r' span its merges, so the next
    round's pairs are (a r, a r') and (r a, r' a) for them and every
    generator a; pairs merged in earlier rounds have theirs formed already.
    Saturation ends in the first round that merges nothing.  Every merge
    costs 2 |A| pairs, so a copy forms at most 2 |A| (n - 1) pairs beyond
    its given ones.

    With ``separate``, an index array, a copy stops, and its entry is None,
    after the first round in which two of its elements share a root: rounds
    only merge, so they would share it in the congruence too.
    """
    n, T, gens = S.size, S.table, S.generators
    offsets = np.arange(len(pair_lists)) * n
    pairs = [np.array(p, dtype=np.intp).reshape(-1, 2) + offsets[c]
             for c, p in enumerate(pair_lists)]
    x, y = np.concatenate(pairs).T
    root = np.arange(offsets.size * n)
    live = np.ones(offsets.size, dtype=bool)
    while True:
        joined = join_roots(root, x, y)
        hung = np.flatnonzero((root == np.arange(root.size)) & (joined != root))
        root = joined
        if separate is not None:
            shared = np.sort(root.reshape(-1, n)[:, separate], axis=1)
            live &= ~(shared[:, 1:] == shared[:, :-1]).any(axis=1)
            hung = hung[live[hung // n]]
        if not hung.size:
            return [r - offset if keep else None
                    for r, offset, keep in zip(root.reshape(-1, n), offsets, live)]
        base = (hung - hung % n)[:, None]       # the offset of each hung root's copy
        x, y = (np.concatenate((T[gens, z - base] + base, T[z - base, gens] + base), axis=None)
                for z in (hung[:, None], root[hung][:, None]))


def random_idempotent_separating_congruences(S: InverseSemigroup, *, seed: int
                                             ) -> list[Relation]:
    """Seeded sample of idempotent-separating congruences.

    No suite calls it: ``congruence.mu_maximal`` certifies mu's maximality
    by ``largest_congruence_inside`` instead.

    Random pair seeds are saturated to congruences; non-separating results are
    discarded.  The attempts saturate together, as disjoint copies of S, and
    an attempt stops saturating as soon as two idempotents share a block;
    saturation only merges blocks, so the kept list is that of saturating
    every attempt in full.  The congruence lattice is too large to
    enumerate.
    """
    rng = random.Random(seed)
    pair_lists = [[(rng.randrange(S.size), rng.randrange(S.size))
                   for _ in range(rng.randint(1, 2))] for _ in range(SAMPLED_ATTEMPTS)]
    return [Relation(root) for root in _saturate(S, pair_lists, separate=S.idempotent_array)
            if root is not None]


def find_split_transversal(S: InverseSemigroup) -> tuple[int, ...] | None:
    """A multiplicative section of the projection onto S/mu, if one exists."""
    mu = mu_relation(S)
    return split_transversal(S, mu, quotient(S, mu))


def split_transversal(S: InverseSemigroup, mu: Relation, q: QuotientMap
                      ) -> tuple[int, ...] | None:
    """A multiplicative section of q, the quotient by mu, if one exists.

    Returns a tuple indexed by mu-classes: entry i is the chosen element of
    block i, the first section in the order of a depth-first search over
    the classes in order, each trying its block's elements in order.  A
    class is forced when it has one candidate: a singleton block, or a block
    with an idempotent, which mu separates, so the idempotent is the only
    candidate.  Every forced class is fixed first and certified, the free
    classes undecided, by ``transversal_defect``; if that fails none exists.
    The search then runs over the free classes only, in order, in an
    explicit loop (so the number of classes is not bounded by the recursion
    limit): picking class i checks every constraint that i completes, i as
    a factor and i as the product, with the factor pairs of each free
    product class grouped once.  Every constraint is checked as soon as its
    classes are decided, so this is the section that a search over all
    classes finds.  That the result is a multiplicative section is checked
    by ``extension.split_transversal``.
    """
    E = S.idempotent_array.tolist()
    forced = dict(zip(mu.labels[E].tolist(), ([e] for e in E)))     # block -> [its idempotent]
    choices = [forced.get(i, list(block)) for i, block in enumerate(mu.blocks)]

    budget = 1
    for c in choices:
        budget *= len(c)
        if budget > TRANSVERSAL_BUDGET:
            raise SearchBudgetExceeded(
                f"transversal search space exceeds {TRANSVERSAL_BUDGET}")

    St, Tt = S.table, q.target.table
    picked = np.array([c[0] if len(c) == 1 else -1 for c in choices], dtype=np.intp)
    if transversal_defect(S, q, picked) is not None:
        return None
    free = np.flatnonzero(picked < 0)
    # the factor pairs (x, y) of each free class, grouped by their product
    x, y = np.nonzero((picked < 0)[Tt])
    xy = Tt[x, y]
    order = np.argsort(xy, kind="stable")
    x, y, xy = x[order], y[order], xy[order]
    factors = [(x[lo:hi], y[lo:hi]) for lo, hi in
               zip(np.searchsorted(xy, free).tolist(),
                   np.searchsorted(xy, free, side="right").tolist())]

    def consistent(j: int) -> bool:
        # free class j has just been picked: check it as a factor against
        # every decided class, and as the product of decided factors
        c = picked[free[j]]
        done = np.flatnonzero(picked >= 0)
        for p, product in ((Tt[free[j], done], St[c, picked[done]]),
                           (Tt[done, free[j]], St[picked[done], c])):
            want = picked[p]
            if ((want >= 0) & (product != want)).any():
                return False
        a, b = (picked[z] for z in factors[j])
        both = (a >= 0) & (b >= 0)
        return not (St[a[both], b[both]] != c).any()

    # depth-first over the free classes in order: tried[j] counts the
    # candidates of free class j tried so far; every free class after j is
    # undecided (-1) whenever class j is being decided
    tried = [0] * free.size
    j = 0
    while 0 <= j < free.size:
        i = free[j]
        if tried[j] == len(choices[i]):
            picked[i] = -1
            tried[j] = 0
            j -= 1
            continue
        picked[i] = choices[i][tried[j]]
        tried[j] += 1
        if consistent(j):
            j += 1
    return tuple(picked.tolist()) if j == free.size else None


def transversal_defect(S: InverseSemigroup, q: QuotientMap, r
                       ) -> tuple[int, int | None] | None:
    """Where r, one element per class of q, fails to be a multiplicative section.

    An entry -1 marks an undecided class, skipped with every constraint
    r(x) r(y) = r(xy) it takes part in.  Scans the other classes x in order:
    (x, None) when r[x] projects to another class, else (x, y) for the
    first y with r[x] r[y] != r[xy]; None if there is none.  The rows x run
    in ``chunks``.
    """
    r = np.asarray(r, dtype=np.intp)
    decided = np.flatnonzero(r >= 0)
    elsewhere = q.projection[r[decided]] != decided
    for rows in chunks(decided.size, len(r)):
        x = decided[rows, None]
        want = r[q.target.table[x, decided]]      # r(xy), or -1 where xy is undecided
        split = (want >= 0) & (S.table[r[x], r[decided]] != want)
        hit = first_index(np.concatenate((elsewhere[rows, None], split), axis=1))
        if hit is not None:
            i, j = hit
            return (int(x[i, 0]), None if j == 0 else int(decided[j - 1]))
    return None


def transversal_defect_text(defect: tuple[int, int | None]) -> str:
    """A witness of ``transversal_defect``, in words."""
    x, y = defect
    return f"not a section at class {x}" if y is None else f"not multiplicative at ({x},{y})"
