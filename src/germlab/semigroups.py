"""Finite inverse semigroups as multiplication tables.

Elements are dense indices 0..n-1.  The multiplication table is the whole
structure; inverses, idempotents, the natural partial order, Green's H and
the centralizer of the idempotents are all derived from it, each by gathers
of the table rather than loops over products.  A subset of the elements,
such as the idempotents or the centralizer, is a boolean mask of length n;
``idempotent_set`` is the one frozenset, kept for set-level callers.  Every
index sequence the core types store, such as ``inv``, is an intp array.

``Relation``, defined here, is the package's one partition type: Green's H,
every congruence and every grouping of action rows is one canonical label
array, each element's block index with blocks numbered by least element.

Laws that are closed under products are certified on a generating set
rather than on every element: Light's associativity test here, and the
homomorphism law of an action in ``actions.validate_action``.  Every table
read or built from scratch passes Light's test; a quotient inherits its
laws through the congruence check (``congruences.quotient``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NoInverse, NonUniqueInverse, NotAssociative, StructureError, ZeroRequired

# Light's test compares (xa)y with x(ay) over a generating set A, for the
# pairs (x, y) with xa not the zero: n times the number of those x, summed
# over A.  A table past LIGHT_BUDGET pairs is refused rather than stalled on.
# A chain needs every element as a generator and is the worst case: the
# 1024-chain compares 1024 * 1023^2 pairs (about 4 s on one x86-64 core),
# the layered graph with 4 layers of 3 vertices 8.5e7 (5359 elements, 66
# generators, 0.8 s).  Tables past TABLE_CAP elements are refused outright.
LIGHT_BUDGET = 1 << 30
TABLE_CAP = 1 << 15
# Entries a graph's path tables, (P + 1)(3 P + 3 + E) for P paths and E edges,
# and n^2 element table may hold: layered 4 x 3 needs 2.9e7, 20000 vertices 1.6e9
GRAPH_TABLE_ENTRIES = 1 << 25
# Every bounded array pass in the package runs over ``chunks`` of rows whose
# temporaries hold about this many entries, or one row where a row holds
# more: Light's test a stack of generators, the inverse search a block of
# rows.  2^15 read the lowest peak memory of 2^14-2^16 on the benchmark's
# workloads, at no cost in time
CHUNK_ENTRIES = 1 << 15


class InverseSemigroup:
    """A validated finite inverse semigroup.

    Instances are immutable in practice: no method mutates state, so they can
    be shared freely across threads.  Use :func:`validate_inverse_semigroup`
    to build one from a raw table.

    ``generators`` is one cached generating set (see :func:`generating_set`).
    Every semigroup the package reads or builds from scratch passes
    :func:`validate_inverse_semigroup` and keeps the set that Light's test
    ran on; a quotient computes it on first use.  Every law that is closed
    under products is certified on it.

    ``inv`` is the intp array of inverses, s* at index s.

    ``graph`` is the ``DirectedGraph`` a graph inverse semigroup was built
    from (``actions.graph_inverse_semigroup``), and None for any other.
    """

    graph = None

    def __init__(self, table: np.ndarray, inv: np.ndarray, zero: int | None,
                 labels: tuple[str, ...], generators: np.ndarray | None = None):
        self.table = table
        self.inv = inv
        self.zero = zero
        self.labels = labels
        if generators is not None:
            self.generators = generators

    @property
    def size(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def elements(self) -> range:
        return range(self.size)

    def label(self, a: int) -> str:
        return self.labels[a]

    def __repr__(self) -> str:
        return f"InverseSemigroup(size={self.size}, zero={self.zero})"

    @cached_property
    def idempotent_mask(self) -> np.ndarray:
        """The idempotents as a boolean mask: the diagonal of the table."""
        return self.table.diagonal() == np.arange(self.size)

    @cached_property
    def idempotent_array(self) -> np.ndarray:
        """The idempotents in increasing order, as an index array."""
        return np.flatnonzero(self.idempotent_mask)

    @cached_property
    def idempotent_set(self) -> frozenset[int]:
        return frozenset(self.idempotent_array.tolist())

    @cached_property
    def generators(self) -> np.ndarray:
        return generating_set(self.table)

    @cached_property
    def leq(self) -> np.ndarray:
        """Boolean matrix of the natural partial order: leq[s,t] iff s <= t.

        s <= t iff s = te for an idempotent e, so one scatter of the columns
        te of the table marks every pair.
        """
        n = self.size
        m = np.zeros((n, n), dtype=bool)
        m[self.table[:, self.idempotent_array], np.arange(n)[:, None]] = True
        return m

    @cached_property
    def h_partition(self) -> "Relation":
        """Green's H: s and t are related when s*s = t*t and ss* = tt*."""
        s, inv = np.arange(self.size), self.inv
        return Relation(self.table[inv, s] * self.size + self.table[s, inv])


class Relation:
    """An equivalence relation on 0..n-1: the one partition type of the package.

    ``labels[x]`` is the index of the block of x, the blocks numbered by
    their least elements, so equal relations have equal label arrays, and
    ``reps[i]`` is the least element of block i.  The constructor takes one
    key per element, or the rows of a 2-D array as keys, and relates the
    elements with equal keys.
    """

    def __init__(self, keys):
        keys = np.asarray(keys)
        if keys.ndim == 2:      # each row as one key: its raw bytes
            keys = np.ascontiguousarray(keys)
            keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
        least: dict = {}        # key -> the first element with that key
        root = [least.setdefault(k, x) for x, k in enumerate(keys.tolist())]
        self.reps = np.array(list(least.values()), dtype=np.intp)
        block = np.zeros(len(root), dtype=np.intp)
        block[self.reps] = np.arange(self.reps.size)
        self.labels = block[root]
        self.labels.flags.writeable = self.reps.flags.writeable = False

    @property
    def size(self) -> int:
        return self.labels.size

    @property
    def count(self) -> int:
        """The number of blocks."""
        return self.reps.size

    @property
    def is_identity(self) -> bool:
        return self.count == self.size

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as increasing tuples, in block order."""
        out: list[list[int]] = [[] for _ in range(self.count)]
        for x, b in enumerate(self.labels.tolist()):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def related(self, a: int, b: int) -> bool:
        return bool(self.labels[a] == self.labels[b])

    def __eq__(self, other) -> bool:
        return isinstance(other, Relation) and np.array_equal(self.labels, other.labels)

    def __repr__(self) -> str:
        return f"Relation({self.blocks})"


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an array, as ``np.unique(values)``.

    A plain ``np.unique`` call asks ``np.ma.is_masked`` first, and the first
    such call in a process imports ``numpy.ma``: 11-15 ms with numpy 2.4,
    more than a whole corpus subject's universal suite.
    """
    flat = np.sort(values, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


def basis_catalog(sets: np.ndarray, labels) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each distinct nonempty row of a boolean array once, in row order,
    under the label of its first occurrence: the form of every basis."""
    nonempty = np.flatnonzero(sets.any(axis=1))
    first = nonempty[Relation(sets[nonempty]).reps]
    return sets[first], tuple(labels[i] for i in first.tolist())


def first_index(mask: np.ndarray) -> tuple[int, ...] | None:
    """The row-major index of the first True entry of mask, or None."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


def chunks(rows: int, per_row: int):
    """Slices of range(rows), in order, of about ``CHUNK_ENTRIES / per_row``
    rows each and at least one: the one bound on a pass's temporaries.
    Every chunked pass computes its rows independently and reports its
    first failure in row order, so the chunk size changes no result."""
    step = max(1, CHUNK_ENTRIES // max(per_row, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def group_pairs(groups: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) joining entries i, each in one of ``groups``, to
    the members j of its group in a list laid out group by group, group g
    holding sizes[g] members: i ascending, and j in list order for each i."""
    mates = sizes[groups]
    ends = np.cumsum(mates)
    i = np.repeat(np.arange(groups.size), mates)
    j = np.repeat((np.cumsum(sizes) - sizes)[groups] - (ends - mates), mates)
    return i, j + np.arange(ends[-1] if ends.size else 0)


def detect_zero(table: np.ndarray, E: np.ndarray) -> int | None:
    """The zero: the z with z x = z = x z for every x, or None.

    A zero is an idempotent and absorbs any product it enters, so it is the
    product of the idempotents E, taken pairwise; one row and column
    comparison then tests that product.
    """
    if table.shape[0] == 1 or not E.size:
        return None  # the trivial semigroup is a group; a zero is an idempotent
    z = E
    while z.size > 1:
        z = np.concatenate((table[z[:-1:2], z[1::2]], z[z.size - z.size % 2:]))
    z = int(z[0])
    return z if (table[z] == z).all() and (table[:, z] == z).all() else None


def _inverses(table: np.ndarray) -> np.ndarray:
    """The inverse of every element, as an index array; each must exist
    and be unique.

    t is an inverse of s iff s t s = s and t s t = t, evaluated at [s, t]
    for ``chunks`` of rows s.  The first s in element order without exactly
    one inverse raises ``NoInverse`` or ``NonUniqueInverse`` with its
    inverses in increasing order.
    """
    n = table.shape[0]
    t = np.arange(n)
    inv = np.empty(n, dtype=np.intp)
    for rows in chunks(n, n):
        s = t[rows, None]
        found = (table[table[s, t], s] == s) & (table[table[t, s], t] == t)
        count = found.sum(axis=1)
        bad = np.flatnonzero(count != 1)
        if bad.size:
            i = int(bad[0])
            if count[i] == 0:
                raise NoInverse(rows.start + i)
            raise NonUniqueInverse(rows.start + i, tuple(np.flatnonzero(found[i]).tolist()))
        inv[rows] = found.argmax(axis=1)
    return inv


def generating_set(table: np.ndarray) -> np.ndarray:
    """Elements A whose products reach every element, as an index array.

    Greedy: the candidates run in order of decreasing |sS|, the number of
    distinct entries in row s, ties by index, and a candidate c joins A when
    the elements reached so far miss it.  Reaching is by rounds of gathers:
    c and the old elements times c first, then in each round the newly
    reached elements times every reached element, on the right, so a round
    doubles the length of the words it reaches.  Each reached element is a
    product of A; on an associative table the reached set is closed under
    right multiplication by A and so is the subsemigroup A generates.  It
    keeps 2 of the 70 elements of z70, 5 of the 209 of symmetric:4 and 27 of
    the 210 of the graph7 test subject.
    """
    n = table.shape[0]
    ranked = np.sort(table, axis=1)
    spread = (ranked[:, 1:] != ranked[:, :-1]).sum(axis=1)
    inside = np.zeros(n, dtype=bool)
    gens: list[int] = []
    for c in np.argsort(-spread, kind="stable").tolist():
        if inside[c]:
            continue
        gens.append(c)
        fresh = distinct(np.append(table[inside, c], c))
        while True:
            fresh = fresh[~inside[fresh]]
            if not fresh.size:
                break
            inside[fresh] = True
            fresh = distinct(table[fresh[:, None], inside])
    return np.array(gens, dtype=np.intp)


def check_associativity(table: np.ndarray) -> np.ndarray:
    """Light's test over a generating set A; returns A.

    (x a) y = x (a y) for every x and y holds for a product ab whenever it
    holds for a and for b: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) and
    x((ab)y) = x(a(by)).  Every element is reached from A by such products,
    associative table or not, so the law holds everywhere once it holds on
    A (Clifford and Preston, The Algebraic Theory of Semigroups I, 1961).

    Where x a is a zero z, (xa)y = z y = z, so the test compares the rows
    x with xa != z in full, and on the other rows it checks x(ay) = z by
    counting: column ay has no entry other than z outside the compared
    rows.  A table whose test would compare more than ``LIGHT_BUDGET``
    pairs (x, y), or that has more than ``TABLE_CAP`` elements, is
    refused.  When it fails, it raises NotAssociative((x, a, y)) for the
    first generator a, in A's order, with a failing pair, and the first
    such pair (x, y) row-major.
    """
    n = table.shape[0]
    if n > TABLE_CAP:           # before any work: the int16 copy holds entries below 2^15
        raise StructureError(f"table too large to validate (n={n} > {TABLE_CAP})")
    small = table.astype(np.int16)     # quarter-size gathers
    gens = generating_set(small)
    z = detect_zero(small, np.flatnonzero(small.diagonal() == np.arange(n)))
    z = -1 if z is None else z         # without a zero every row is compared
    live = small[:, gens] != z         # [x, a]: xa is not the zero
    pairs = n * int(live.sum())
    if pairs > LIGHT_BUDGET:
        raise StructureError(f"table too large to validate (n={n} with |A|={gens.size} "
                             f"generators: {pairs} pairs > {LIGHT_BUDGET})")
    outside = (small != z).sum(axis=0)  # entries other than z in each column
    for rows in chunks(gens.size, n * n):
        a = gens[rows]
        xs = np.flatnonzero(live[:, rows].any(axis=1))
        right = np.take(small[xs], small[a], axis=1)        # x(ay) at [x, a, y]
        if ((small[small[xs[:, None], a]] != right).any()
                or ((right != z).sum(axis=0) != outside[small[a]]).any()):
            # the first failing generator, then its pair, over every row
            bad = small[small[:, a]] != np.take(small, small[a], axis=1)
            k, x, y = first_index(bad.transpose(1, 0, 2))
            raise NotAssociative((x, int(a[k]), y))
    return gens


def validate_inverse_semigroup(table, labels=None) -> InverseSemigroup:
    """Validate a raw multiplication table and derive the inverse structure.

    Every table read or built from scratch passes Light's associativity
    test (``check_associativity``), whose generating set the result keeps;
    a quotient inherits its laws through ``congruences.quotient``.  The
    inverse of each element is then found by exhaustive search, one gather
    over the pairs (s, t) per chunk of rows (``_inverses``), and must be
    unique, so the idempotents commute (Howie, Fundamentals of Semigroup
    Theory, 1995, 5.1.1).  A zero is detected automatically, never declared.
    """
    try:
        table = np.asarray(table, dtype=np.int64)
    except OverflowError:       # an entry past int64, out of range for any table
        raise StructureError("table entries out of range") from None
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise StructureError("table must be square")
    n = table.shape[0]
    if n == 0:
        raise StructureError("empty semigroup")
    if table.min() < 0 or table.max() >= n:
        raise StructureError("table entries out of range")
    gens = check_associativity(table)
    inv = _inverses(table)

    if labels is None:
        labels = tuple(f"s{i}" for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise StructureError("labels length does not match table")

    idems = np.flatnonzero(table.diagonal() == np.arange(n))
    return InverseSemigroup(table, inv, detect_zero(table, idems), labels, gens)


def natural_leq(S: InverseSemigroup, s: int, t: int) -> bool:
    """True iff s = te for some idempotent e."""
    return bool(S.leq[s, t])


def h_classes(S: InverseSemigroup) -> tuple[tuple[int, ...], ...]:
    """Partition of S by Green's H relation (s*s and ss* both agree)."""
    return S.h_partition.blocks


def h_class_of(S: InverseSemigroup, s: int) -> tuple[int, ...]:
    if not 0 <= s < S.size:
        raise StructureError(f"element {s} out of range")
    return S.h_partition.blocks[S.h_partition.labels[s]]


def is_clifford(S: InverseSemigroup) -> bool:
    s, inv = np.arange(S.size), S.inv
    return bool((S.table[inv, s] == S.table[s, inv]).all())


def _below_idempotents_only(S: InverseSemigroup, idems: np.ndarray) -> bool:
    """No element of idems sits below a non-idempotent in the natural order."""
    return not S.leq[idems][:, ~S.idempotent_mask].any()


def is_e_unitary(S: InverseSemigroup) -> bool:
    """No idempotent sits below a non-idempotent in the natural order."""
    return _below_idempotents_only(S, S.idempotent_array)


def is_zero_e_unitary(S: InverseSemigroup) -> bool:
    """Variant of E-unitarity quantifying over nonzero idempotents only."""
    if S.zero is None:
        raise ZeroRequired("0-E-unitary needs a zero element")
    E = S.idempotent_array
    return _below_idempotents_only(S, E[E != S.zero])


def centralizer(S: InverseSemigroup) -> np.ndarray:
    """The elements commuting with every idempotent, as a mask; a Clifford
    subsemigroup, as the check ``semigroup.centralizer_normal`` certifies."""
    E = S.idempotent_array
    return (S.table[:, E] == S.table[E, :].T).all(axis=1)


def normality_defect(S: InverseSemigroup, inside: np.ndarray) -> str | None:
    """Why the element mask ``inside`` is not a normal subsemigroup (all
    idempotents, closed under inverses and products, stable under
    conjugation), or None when it is.

    The first witness is that of loops over the members in increasing order:
    missing idempotents, inverses, then products (a, b) row-major, then
    conjugates s* z s over (s, z) row-major.
    """
    missing = np.flatnonzero(S.idempotent_mask & ~inside)
    if missing.size:
        return f"idempotent {missing[0]} is missing"
    T = S.table
    members = np.flatnonzero(inside)
    hit = first_index(~inside[S.inv[members]])
    if hit is not None:
        return f"not closed under inverses at {int(members[hit[0]])}"
    hit = first_index(~inside[T[np.ix_(members, members)]])
    if hit is not None:
        a, b = members[list(hit)].tolist()
        return f"not closed under products at ({a},{b})"
    hit = first_index(~inside[T[T[S.inv[:, None], members], np.arange(S.size)[:, None]]])
    if hit is not None:
        s, j = hit
        return f"conjugation by {s} moves {int(members[j])} outside"
    return None


def direct_product(A: InverseSemigroup, B: InverseSemigroup) -> InverseSemigroup:
    """Direct product with pairs ordered (a, b) -> a * B.size + b."""
    na, nb = A.size, B.size
    table = (A.table[:, None, :, None] * nb + B.table[None, :, None, :]).reshape(na * nb, -1)
    labels = tuple(f"({A.label(a)},{B.label(b)})"
                   for a in range(na) for b in range(nb))
    return validate_inverse_semigroup(table, labels)
