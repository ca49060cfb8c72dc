"""Finite meet semilattices, their filter spectra, and derived semigroups.

Every filter of a finite semilattice is principal (it contains the meet of
its members), so a point of the filter spectrum is named by its generator,
and a spectrum is an index array of generators (``spectrum_points``).  The
ultrafilters are the principal filters of the atoms, so the tight spectrum
is the index array ``atoms``.  The only frozensets are the set-level
reference of the tight checks: ``principal_filter`` and the lists of
``all_filters`` and ``ultrafilters`` built from it; every other set of
elements is a boolean mask.  ``filter_defects`` tests a stack of member
masks against the definition of a filter, and ``up_set_filters`` applies it
to every up-set of E, enumerated as bitmask words: the oracles of the
checks ``spectrum.*``.

A partial bijection of p points is a row of p point indices, -1 where it is
undefined; ``compose_after`` is the one composition of such rows, shared by
the tables of Munn semigroups and symmetric inverse monoids and by the
action checks.  A table of such rows is read off by one sort: the rows'
keys are sorted once and every composed row is found by ``np.searchsorted``,
as ``spectrum.munn_fundamental`` finds the identity rows of a Munn semigroup.

The order of a semilattice is one cached boolean matrix, ``Semilattice.order``;
principal filters and the basis rows of the spectrum are masks of it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .errors import SizeBudgetExceeded, StructureError, ZeroRequired
from .semigroups import (
    InverseSemigroup,
    basis_catalog,
    check_associativity,
    chunks,
    validate_inverse_semigroup,
)

EXHAUSTIVE_FILTER_CAP = 20
MUNN_ELEMENT_CAP = 512
SYMMETRIC_POINT_CAP = 5


class Semilattice:
    """A finite meet semilattice given by its meet table.

    ``zero`` marks the index that filters must avoid: it is the zero of the
    semigroup the semilattice came from, and is None when that semigroup had
    no zero (then even the bottom element generates a filter).
    ``parent_index`` is the intp array of those idempotents in the semigroup,
    increasing, or None for a semilattice given by its own meet table.
    """

    def __init__(self, meet: np.ndarray, zero: int | None, labels: tuple[str, ...],
                 parent_index: np.ndarray | None = None):
        self.meet = meet
        self.zero = zero
        self.labels = labels
        self.parent_index = parent_index

    @property
    def size(self) -> int:
        return self.meet.shape[0]

    def wedge(self, e: int, f: int) -> int:
        return int(self.meet[e, f])

    def leq(self, e: int, f: int) -> bool:
        return int(self.meet[e, f]) == e

    def label(self, e: int) -> str:
        return self.labels[e]

    @cached_property
    def order(self) -> np.ndarray:
        """Boolean matrix of the order: order[e, f] iff e <= f, that is ef = e."""
        return self.meet == np.arange(self.size)[:, None]

    @cached_property
    def filter_pairs(self) -> tuple[np.ndarray, ...]:
        """The pairs ``filter_defects`` gathers: (e, f) with e < f in the
        order, then (e, f, meet[e, f]) where the meet is neither e nor f,
        each unordered pair once where the table is symmetric (a meet equal
        to e or f is in a set with it)."""
        idx = np.arange(self.size)
        above_e, above_f = np.nonzero(self.order & (idx[:, None] != idx))
        trivial = (self.meet == idx[:, None]) | (self.meet == idx)
        pe, pf = np.nonzero(~trivial & ((idx[:, None] <= idx) | (self.meet != self.meet.T)))
        return above_e, above_f, pe, pf, self.meet[pe, pf]

    @cached_property
    def bottom(self) -> int:
        b = 0
        for e in range(self.size):
            b = self.wedge(b, e)
        return b

    def __repr__(self) -> str:
        return f"Semilattice(size={self.size}, zero={self.zero})"


def validate_semilattice(meet, zero="detect", labels=None) -> Semilattice:
    """Check commutativity, idempotency and, by Light's test as for every
    table (``check_associativity``), associativity of a meet table.

    ``zero="detect"`` treats the semilattice as its own parent semigroup, so
    the bottom element is its zero.  Pass ``zero=None`` for the semilattice of
    a zero-free semigroup.
    """
    meet = np.asarray(meet, dtype=np.int64)
    if meet.ndim != 2 or meet.shape[0] != meet.shape[1]:
        raise StructureError("meet table must be square")
    n = meet.shape[0]
    if n == 0:
        raise StructureError("empty semilattice")
    if meet.min() < 0 or meet.max() >= n:
        raise StructureError("meet entries out of range")
    if not (meet == meet.T).all():
        raise StructureError("meet is not commutative")
    if (meet.diagonal() != np.arange(n)).any():
        raise StructureError("meet is not idempotent")
    check_associativity(meet)
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    L = Semilattice(meet, None, tuple(labels))
    if zero == "detect":
        L.zero = L.bottom
    elif zero is None or isinstance(zero, int):
        L.zero = zero
    else:
        raise StructureError("zero must be 'detect', None, or an index")
    return L


def semilattice_of(S: InverseSemigroup) -> Semilattice:
    """Restrict the product table to the idempotents, recording the index map.
    Not validated again: ``validate_inverse_semigroup`` and the check
    ``semigroup.idempotents_closed`` certify that this is a semilattice."""
    idems = S.idempotent_array
    back = np.full(S.size, -1, dtype=np.int64)
    back[idems] = np.arange(idems.size)
    return Semilattice(back[S.table[np.ix_(idems, idems)]],
                       None if S.zero is None else int(back[S.zero]),
                       tuple(S.label(e) for e in idems.tolist()), idems)


def principal_filter(E: Semilattice, e: int) -> frozenset[int]:
    return frozenset(np.flatnonzero(E.order[e]).tolist())


def spectrum_points(E: Semilattice) -> np.ndarray:
    """The points of the filter spectrum, each named by its generator: the
    nonzero elements, in the canonical order of their principal filters'
    sorted members (distinct elements generate distinct filters)."""
    up = E.order.tolist()
    points = sorted((e for e in range(E.size) if e != E.zero),
                    key=lambda e: [f for f, above in enumerate(up[e]) if above])
    return np.array(points, dtype=np.intp)


def all_filters(E: Semilattice) -> list[frozenset[int]]:
    """Every filter, canonically ordered: the principal filters of the
    spectrum points, as a finite filter is the upward closure of its least member."""
    return [principal_filter(E, g) for g in spectrum_points(E).tolist()]


def filter_defects(E: Semilattice, members: np.ndarray) -> np.ndarray:
    """Per row of a stack of member masks (k, |E|), whether it is not a filter.

    The definition, tested literally: a filter is nonempty and zero-free,
    upward closed (no F[e] & order[e, f] & ~F[f]) and meet-closed
    (F[meet[e, f]] wherever F[e] & F[f]).  Only the pairs that can fail are
    gathered, ``Semilattice.filter_pairs``.  Rows are tested in ``chunks``.
    """
    above_e, above_f, pe, pf, pm = E.filter_pairs
    bad = ~members.any(axis=1)
    if E.zero is not None:
        bad |= members[:, E.zero]
    for rows in chunks(members.shape[0], max(above_e.size, pe.size)):
        F = members[rows]
        bad[rows] |= ((F[:, above_e] & ~F[:, above_f]).any(axis=1)
                      | (F[:, pe] & F[:, pf] & ~F[:, pm]).any(axis=1))
    return bad


def _bits(n: int) -> np.ndarray:
    """The uint64 words of the single elements 0..n-1."""
    return np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))


def filter_words(members: np.ndarray) -> np.ndarray:
    """Member masks (k, |E|) packed into uint64 words, bit e for member e."""
    return (members * _bits(members.shape[1])).sum(axis=1, dtype=np.uint64)


def up_sets(E: Semilattice) -> np.ndarray:
    """Every up-set of E, the empty one included, as ``filter_words``.

    Top down: each element in turn joins every up-set found so far that
    holds all elements strictly above it.  An element has fewer elements
    above it than anything below it, so taking them by that count meets
    each one after everything above it.  Capped at EXHAUSTIVE_FILTER_CAP
    elements, since an antichain of k elements has 2^k up-sets.
    """
    if E.size > EXHAUSTIVE_FILTER_CAP:
        raise SizeBudgetExceeded(f"up-set enumeration is capped at {EXHAUSTIVE_FILTER_CAP}")
    bits = _bits(E.size)
    needs = filter_words(E.order) & ~bits                  # the elements above e
    top_down = np.argsort(E.order.sum(axis=1))
    words = np.zeros(1, dtype=np.uint64)
    for need, bit in zip(needs[top_down], bits[top_down]):
        words = np.concatenate((words, words[(words & need) == need] | bit))
    return words


def up_set_filters(E: Semilattice) -> np.ndarray:
    """The up-sets of E that ``filter_defects`` passes, as words in
    enumeration order.  Every filter is an up-set, so these are exactly the
    subsets of E that are filters.  The words are unpacked into member
    masks one of ``chunks`` at a time."""
    words, bits = up_sets(E), _bits(E.size)
    keep = [~filter_defects(E, (words[rows, None] & bits) != 0)
            for rows in chunks(words.size, E.size)]
    return words[np.concatenate(keep)]


def atoms(E: Semilattice) -> np.ndarray:
    """The points of the tight spectrum, in ``spectrum_points`` order: the
    atoms of E, the points with no other point below them, whose principal
    filters are the maximal filters."""
    points = spectrum_points(E)
    return points[E.order[np.ix_(points, points)].sum(axis=0) == 1]


def ultrafilters(E: Semilattice) -> list[frozenset[int]]:
    """Maximal filters; for a finite semilattice, the filters of its atoms."""
    return [principal_filter(E, a) for a in atoms(E).tolist()]


def spectrum_basis(E: Semilattice, points: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Labeled boolean rows over the points: a basis of their (discrete) space.

    Contains the domains of the idempotents together with one isolating set
    per point, so interior computations driven by this catalog agree with the
    discrete topology while staying in basis-set form.  The members of every
    set are one mask over the points' filters, the rows E.order[points]:
    N^e holds the points whose filter contains e, and the isolating set
    N^g_{f,...} of the point g holds those whose filter contains g and none
    of the maximal elements f outside up(g).
    """
    inside = E.order[points]
    outside = ~inside
    # maximal[i, f]: f is outside the filter of point i, and no non-member
    # above it; counts below 2^24 keep the float32 products exact
    above = (E.order & ~np.eye(E.size, dtype=bool)).T.astype(np.float32)   # [g, f]: f < g
    maximal = outside & ~(outside.astype(np.float32) @ above > 0)
    # isolated[i, j]: point j is in the isolating set of point i
    isolated = inside[:, points].T & ~(maximal.astype(np.float32)
                                       @ inside.T.astype(np.float32) > 0)
    nonzero = np.arange(E.size) != (-1 if E.zero is None else E.zero)
    labels = [f"N^{E.label(e)}" for e in np.flatnonzero(nonzero).tolist()]
    for g, m in zip(points.tolist(), maximal.tolist()):
        exclude = ",".join(E.label(f) for f, out in enumerate(m) if out)
        labels.append(f"N^{E.label(g)}" + (f"_{{{exclude}}}" if any(m) else ""))
    return basis_catalog(np.concatenate((inside.T[nonzero], isolated)), labels)


def is_zero_disjunctive(E: Semilattice) -> bool:
    """Whether every strict pair 0 < e < f admits e' < f with e.e' = 0."""
    if E.zero is None:
        raise ZeroRequired("0-disjunctivity needs a zero")
    z = E.zero
    for f in range(E.size):
        for e in range(E.size):
            if e in (z, f) or not E.leq(e, f):
                continue
            if not any(ep not in (z, f) and E.leq(ep, f) and E.wedge(e, ep) == z
                       for ep in range(E.size)):
                return False
    return True


def _ideal(E: Semilattice, e: int) -> tuple[int, ...]:
    return tuple(np.flatnonzero(E.order[:, e]).tolist())


def _order_isos(E: Semilattice, dom: tuple[int, ...], img: tuple[int, ...]):
    """All order isomorphisms between two principal ideals, by backtracking."""
    if len(dom) != len(img):
        return
    leq = E.order.tolist()
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int):
        if i == len(dom):
            yield dict(assignment)
            return
        x = dom[i]
        for y in img:
            if y in used:
                continue
            ok = True
            for x2, y2 in assignment.items():
                if leq[x][x2] != leq[y][y2] or leq[x2][x] != leq[y2][y]:
                    ok = False
                    break
            if ok:
                assignment[x] = y
                used.add(y)
                yield from extend(i + 1)
                del assignment[x]
                used.discard(y)

    yield from extend(0)


def compose_after(f: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each partial bijection of f after each row of `rows`.

    A partial bijection of p points is a row of p point indices, -1 where it
    is undefined.  With -1 appended to each row of f, an undefined point
    indexes an undefined image, so one gather composes: for one row f the
    result at [..., x] is f[rows[..., x]], -1 where either map is undefined,
    and a stack of rows f gives one such result per row, stacked in front.
    """
    padded = np.concatenate((f, np.full(f.shape[:-1] + (1,), -1, dtype=f.dtype)), axis=-1)
    return padded[..., rows]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Sort keys of partial bijection rows (the last axis), equal exactly for
    equal rows: the entries + 1 as digits base p + 1, packed into as few
    int64 words as hold them.  Rows of up to 15 points take one word; wider
    rows compare word by word as a structured key."""
    p = rows.shape[-1]
    base = p + 1
    width = 1
    while width < p and base ** (width + 1) < 2 ** 63:
        width += 1
    weights = base ** np.arange(width, dtype=np.int64)
    if width >= p:
        return (rows + 1) @ weights[:p]
    words = -(-p // width)
    digits = np.zeros(rows.shape[:-1] + (words * width,), dtype=np.int64)
    digits[..., :p] = rows + 1
    keys = digits.reshape(rows.shape[:-1] + (words, width)) @ weights
    return np.ascontiguousarray(keys).view([(f"w{i}", np.int64) for i in range(words)])[..., 0]


def row_finder(rows: np.ndarray):
    """The lookup of a stack of query rows among `rows`: the index of each,
    -1 where no row equals it.  The rows' keys are sorted once; the
    queries' keys are found among them by ``np.searchsorted``."""
    keys = _row_keys(rows)
    order = np.argsort(keys)
    ranked = keys[order]

    def find(queries: np.ndarray) -> np.ndarray:
        wanted = _row_keys(queries)
        at = np.minimum(np.searchsorted(ranked, wanted), ranked.size - 1)
        return np.where(ranked[at] == wanted, order[at], -1)
    return find


def partial_bijection_semigroup(rows: np.ndarray, labels) -> InverseSemigroup:
    """The table of a composition-closed stack of partial bijection rows, in row order.

    Each of ``chunks`` of rows composes with every row, and ``row_finder``
    finds the products among the rows.
    """
    n, p = rows.shape
    find = row_finder(rows)
    table = np.empty((n, n), dtype=np.int64)
    for chunk in chunks(n, n * p):
        table[chunk] = find(compose_after(rows[chunk], rows))
    if (table < 0).any():
        raise StructureError("partial bijections are not closed under composition")
    return validate_inverse_semigroup(table, labels)


def _rows(maps, points: int) -> np.ndarray:
    """Partial bijections given as (x, y) pairs, one row each."""
    rows = np.full((len(maps), points), -1, dtype=np.intp)
    for i, pairs in enumerate(maps):
        for x, y in pairs:
            rows[i, x] = y
    return rows


def munn_rows(E: Semilattice) -> tuple[np.ndarray, tuple[str, ...]]:
    """All isomorphisms between principal order ideals, as partial bijection
    rows over E in the order of their sorted (x, y) pairs, and their labels.

    Distinct ideals have distinct domains, so no map is found twice.
    """
    maps: list[dict[int, int]] = []
    for e in range(E.size):
        dom = _ideal(E, e)
        for f in range(E.size):
            maps += _order_isos(E, dom, _ideal(E, f))
            if len(maps) > MUNN_ELEMENT_CAP:
                raise SizeBudgetExceeded(f"Munn semigroup exceeds {MUNN_ELEMENT_CAP} elements")
    maps.sort(key=lambda m: tuple(sorted(m.items())))
    return _rows([m.items() for m in maps], E.size), tuple(_munn_label(E, m) for m in maps)


def munn_semigroup(E: Semilattice) -> InverseSemigroup:
    """All isomorphisms between principal order ideals, composed as partial maps.

    The result is validated as an inverse semigroup; fundamentality and
    E(T_E) = E are theorems about it, checked by ``spectrum.munn_fundamental``.
    """
    return partial_bijection_semigroup(*munn_rows(E))


def _munn_label(E: Semilattice, m: dict[int, int]) -> str:
    if not m:
        return "[]"
    if all(x == y for x, y in m.items()):
        top = max(m, key=lambda x: sum(E.leq(y, x) for y in m))
        return f"id|{E.label(top)}"
    return "[" + ",".join(f"{E.label(x)}>{E.label(y)}"
                          for x, y in sorted(m.items())) + "]"


def symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """All partial bijections of an n-point set under composition."""
    if n < 0 or n > SYMMETRIC_POINT_CAP:
        raise SizeBudgetExceeded(
            f"symmetric inverse monoid bound is 0 <= n <= {SYMMETRIC_POINT_CAP}, got n={n}")
    maps = sorted((k, tuple(zip(dom, img))) for k in range(n + 1)
                  for dom in combinations(range(n), k)
                  for img in permutations(range(n), k))
    labels = tuple("{" + ",".join(f"{x}>{y}" for x, y in pairs) + "}" for _, pairs in maps)
    return partial_bijection_semigroup(_rows([pairs for _, pairs in maps], n), labels)
