"""Finite groupoids with an explicit topology basis.

Arrows are indices 0..n-1.  The units are listed in increasing order by
``units``; they and every other arrow subset (the isotropy and its
interior, kernels, subgroupoids) are boolean masks over the arrows, which
the predicates here take.  ``r``, ``d`` and ``inv`` are integer arrays over
the arrows, and the composition is one
(n, n) integer table: ``table[g, h]`` is the arrow gh, or -1 where
d(g) != r(h), the idiom of the semigroup table and of an action's rows.
``comp`` lists the composable pairs as rows (g, h, gh), read off the table
in column-major order (sorted by h, then g); the convolution sums in that
order.

The topology is carried in index form (``Cuts``): integer rows with -1
outside each domain (a germ groupoid's ``germ_at``, elements by points) and
boolean sets over the same points (the unit catalog), a basis set for each
nonempty cut {rows[s, x] : x in set j}.  Interior, openness and closedness
are two small products of those arrays, so the computations follow the
basis-set definitions even though every finite corpus groupoid ends up
discrete; nothing is deduplicated or labeled until a witness is named.
``basis`` is the deduplicated catalog, built on first read for display.
Groupoids built directly (pair groupoids, group tables, ...) carry the
discrete basis, one singleton cut per arrow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import SearchBudgetExceeded, StructureError
from .semigroups import chunks, distinct, first_index
from .semilattices import compose_after

ISO_SEARCH_CAP = 64


@dataclass(eq=False, frozen=True)
class Cuts:
    """An open basis in index form: the nonempty sets {rows[s, x] : x in
    sets[j]}, one per pair (s, j), in row-major order.

    rows is a (k, m) integer array of arrows, -1 outside each domain, and
    sets a (c, m) boolean array over the same m points; the cut (s, j) is
    labeled ``form.format(row_labels[s], set_labels[j])``.  An arrow sits
    in one column only (a germ [s, x] in the column of its point x), so a
    cut's set is determined by its row over the points.  Distinct cuts may
    be equal sets; the first of them is the set's name.
    """

    rows: np.ndarray
    sets: np.ndarray
    row_labels: tuple[str, ...]
    set_labels: tuple[str, ...]
    form: str

    def label(self, s: int, j: int) -> str:
        return self.form.format(self.row_labels[s], self.set_labels[j])

    @cached_property
    def member(self) -> np.ndarray:
        return self.rows >= 0

    @cached_property
    def sets32(self) -> np.ndarray:
        return self.sets.astype(np.float32)

    @cached_property
    def nonempty(self) -> np.ndarray:
        """(k, c): the cuts with at least one arrow."""
        return self.member.astype(np.float32) @ self.sets32.T > 0

    def good(self, subset: np.ndarray) -> np.ndarray:
        """(k, c): the nonempty cuts with every arrow in the arrow mask."""
        outside = self.member & ~np.append(subset, True)[self.rows]
        return self.nonempty & (outside.astype(np.float32) @ self.sets32.T == 0)

    def covered(self, good: np.ndarray) -> np.ndarray:
        """(k, m): the entries of each row that lie in one of its good cuts."""
        return self.member & (good.astype(np.float32) @ self.sets32 > 0)

    def catalog(self, n_arrows: int) -> np.ndarray:
        """Each distinct set once, as a boolean row over the arrows, in the
        order of its first cut: the dense view, one row per set.  The cuts'
        rows over the points are formed in ``chunks`` and keyed by their
        bytes, so only the kept sets outlive a chunk."""
        s, j = np.nonzero(self.nonempty)
        width = self.rows.shape[1]
        first: dict = {}                  # a set's row over the points -> its first cut
        for chunk in chunks(s.size, width):
            rows = np.where(self.sets[j[chunk]], self.rows[s[chunk]], -1)
            keys = rows.view(np.dtype((np.void, rows.itemsize * width)))[:, 0]
            for i, key in enumerate(keys.tolist(), chunk.start):
                first.setdefault(key, i)
        cut = np.fromiter(first.values(), dtype=np.intp, count=len(first))
        kept = np.where(self.sets[j[cut]], self.rows[s[cut]], -1)
        out = np.zeros((cut.size, n_arrows), dtype=bool)
        at, x = np.nonzero(kept >= 0)
        out[at, kept[at, x]] = True
        return out


@dataclass(eq=False)
class FiniteGroupoid:
    """Arrows with range/source/inverse arrays, a composition table (gh at
    [g, h], -1 where d(g) != r(h)) and an open basis in index form."""

    n_arrows: int
    r: np.ndarray
    d: np.ndarray
    inv: np.ndarray
    table: np.ndarray
    units: tuple[int, ...]
    labels: tuple[str, ...]
    cuts: Cuts

    def arrows(self) -> range:
        return range(self.n_arrows)

    def label(self, a: int) -> str:
        return self.labels[a]

    @cached_property
    def basis(self) -> np.ndarray:
        """The distinct basis sets as boolean rows over the arrows, built on
        first read; the predicates read ``cuts``."""
        return self.cuts.catalog(self.n_arrows)

    @cached_property
    def unit_mask(self) -> np.ndarray:
        """The units as a boolean mask over the arrows."""
        out = np.zeros(self.n_arrows, dtype=bool)
        out[list(self.units)] = True
        return out

    @cached_property
    def comp(self) -> np.ndarray:
        """The composable pairs as rows (g, h, gh), sorted by h, then g; each
        column is contiguous."""
        h, g = np.nonzero(self.table.T >= 0)
        return np.array([g, h, self.table[g, h]]).T

    @cached_property
    def fibers_by_size(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per unit, its d-fiber and the matrix [a b^-1] (rows a, columns b;
        always composable, so it indexes every arrow of the unit's block),
        stacked by size: one pair (fibers (m, s), matrices (m, s, s)) per
        fiber size s, sizes in order of first occurrence over ``units``,
        units in ``units`` order within a size, each fiber increasing.  One
        stable sort by the source's place in ``units`` lays the fibers end to
        end; an arrow whose source is not a listed unit is in no fiber."""
        place = np.full(self.n_arrows, -1, dtype=np.intp)     # a unit's place in units
        place[list(self.units)] = np.arange(len(self.units))
        source = place[self.d]
        stacked = np.argsort(source, kind="stable")[np.count_nonzero(source < 0):]
        size = np.bincount(source[stacked], minlength=len(self.units))
        start = np.cumsum(size) - size
        out = []
        for s in dict.fromkeys(size.tolist()):      # in order of first occurrence
            fibers = stacked[start[size == s, None] + np.arange(s)]
            out.append((fibers, self.table[fibers[:, :, None], self.inv[fibers][:, None, :]]))
        return tuple(out)

    @cached_property
    def orbit_units(self) -> tuple[int, ...]:
        """The least unit of each orbit, in ``units`` order: the units u that
        are the least range of an arrow out of u.  In a groupoid every unit
        of u's orbit is the range of such an arrow."""
        least = np.full(self.n_arrows, self.n_arrows, dtype=np.intp)
        np.minimum.at(least, self.d, self.r)
        units = np.asarray(self.units, dtype=np.intp)
        return tuple(units[least[units] == units].tolist())

    @cached_property
    def fiber_stacks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The fiber matrices [a b^-1] at the units of ``orbit_units``, read
        from the table, each split by a cyclic subgroup of its isotropy, with
        the characters of that subgroup that carry every block norm, stacked
        by (r, o, kept): one triple ((orbits, r, r, o) array, kept, the
        (orbits,) representatives) per key, in order of first occurrence.

        Every other unit's matrix is its orbit representative's with rows
        and columns permuted alike (see ``algebra.reduced_norm``), so these
        blocks carry every block norm.  At a representative x, g is an arrow
        of largest order o in the isotropy G_x (the least such; x itself
        when G_x is trivial).  The fiber d^-1(x), of size s, falls into
        r = s / o right cosets c_p <g>, c_p the least arrow of its coset and
        the cosets ordered by c_p, and entry [p, q, j] is c_p g^j c_q^-1.
        Taken in the order c_p g^j, the fiber's block has the entry
        f(c_p g^j (c_q g^l)^-1) = f(c_p g^(j-l) c_q^-1) at ((p, j), (q, l)):
        an r x r matrix of o x o circulants, since right translation by g
        commutes with it.  A DFT along j diagonalizes every circulant and
        leaves o blocks B_t of r x r, t in Z/o, whose largest norm is the
        block's.  When o = 1 the cosets are the single arrows in increasing
        order, and [:, :, 0] is the fiber matrix itself.

        kept (increasing, intp) holds the least t of each class
        {k t mod o : k in K}, K = {k : h^-1 g h = g^k for some h in G_x}.
        Right translation R_h by such an h also commutes with the block,
        and R_g R_h = R_h R_(g^k), so R_h maps the eigenspace of R_g that
        carries B_t onto the one that carries B_(kt): the two blocks are
        unitarily equivalent and have one norm (Clifford theory; Serre,
        *Linear Representations of Finite Groups*, 1977, section 8).  So
        the kept blocks carry every norm.
        """
        by_key: dict[tuple, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        for x in self.orbit_units:
            block, kept = _coset_circulants(self, x)
            by_key.setdefault((block.shape, tuple(kept.tolist())), []).append((x, block, kept))
        return tuple((np.stack([block for _, block, _ in same]), same[0][2],
                      np.array([x for x, _, _ in same], dtype=np.intp)) for same in by_key.values())

    @cached_property
    def isotropy(self) -> np.ndarray:
        """The arrows with r = d (``iso_bundle``), as a mask."""
        return self.r == self.d

    @cached_property
    def isotropy_interior(self) -> np.ndarray:
        """The interior of the isotropy in the basis topology (``iso_interior``)."""
        return interior(self, self.isotropy)

    def __repr__(self) -> str:
        return f"FiniteGroupoid(arrows={self.n_arrows}, units={len(self.units)})"


def _coset_circulants(G: FiniteGroupoid, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The (r, r, o) array [c_p g^j c_q^-1] of ``fiber_stacks`` at the unit
    x and its kept characters, read from ``G.table``.

    Each b in G_x is read as (x b^-1)^-1 = b, inverses through the table.  The
    products of G_x are its table, read once as positions in G_x; the
    orders, g and its powers, and the conjugates h^-1 g h come from that
    small table, not from the whole fiber.  A table that is no group's
    raises a ``StructureError``: G_x not closed, an arrow none of whose
    first |G_x| powers is x (an order divides |G_x|), or g conjugate to no
    power.
    """
    table, inv = G.table, G.inv
    fiber = np.flatnonzero(G.d == x)              # d^-1(x), in increasing order
    iso = fiber[G.r[fiber] == x]                  # G_x, in increasing order
    if len(iso) == 1:           # o = 1: every arrow is its own coset
        return table[fiber[:, None], inv[fiber]][:, :, None], np.zeros(1, dtype=np.intp)
    within = np.full(G.n_arrows + 1, -1, dtype=np.intp)   # position in G_x; -1 off it and at -1
    every = within[iso] = np.arange(len(iso))
    inverse = table[x, inv[iso]]                  # x b^-1
    right = inv[inverse]                          # the arrows that multiply by b in G_x
    products = within[table[iso[:, None], right]]     # a b at [a, b]
    if G.d[x] != x or min(within[inverse].min(), products.min()) < 0:
        raise StructureError(f"the isotropy at unit {x} is not closed in the table")
    e = within[x]
    powers = every[:, None]                       # b^(j+1) at [b, j], doubled until e shows
    while not (powers == e).any(axis=1).all():
        if powers.shape[1] >= len(iso):           # an order divides |G_x|
            b = iso[np.argmin((powers == e).any(axis=1))]
            raise StructureError(f"no power b^j, j <= {len(iso)}, of arrow {b} is the unit {x}")
        powers = np.hstack((powers, products[powers[:, -1:], powers]))
    order = (powers == e).argmax(axis=1) + 1
    g = int(np.argmax(order))                     # the least arrow of largest order
    o = int(order[g])
    cyclic = powers[g, np.arange(-1, o - 1) % o]  # g^0 = g^o, g, ..., g^(o-1)
    exponent = np.full(len(iso), -1)
    exponent[cyclic] = np.arange(o)
    k = exponent[products[products[within[inverse], g], every]]   # h^-1 g h = g^k, or -1
    if k.max() < 0:         # in a group h = x gives k = 1
        raise StructureError(f"no conjugate of arrow {iso[g]} at unit {x} is a power")
    classes = (k[k >= 0, None] * np.arange(o)) % o        # {k t} over the rows, t over the columns
    kept = np.flatnonzero(classes.min(axis=0) == np.arange(o))
    cosets = table[fiber[:, None], right[cyclic]]         # [a g^j]
    lead = cosets.min(axis=1) == fiber                    # a, the least of a <g>
    return table[cosets[lead][:, None, :], inv[fiber[lead]][None, :, None]], kept


@dataclass(frozen=True)
class FiniteGroup:
    """A one-unit groupoid."""

    groupoid: FiniteGroupoid

    @property
    def order(self) -> int:
        return self.groupoid.n_arrows


@dataclass
class GroupoidHom:
    """An arrow map that preserves units and composition."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    map: tuple[int, ...]


def validate_groupoid(G: FiniteGroupoid) -> FiniteGroupoid:
    """Check the groupoid axioms and basis sanity, every failure with its
    first witness.

    ``make_groupoid`` runs it on the arrays its callers supply.  Groupoids
    that a construction makes a groupoid by theorem (germs, extracted
    subgroupoids, the group image of the cocycle) are not validated where
    they are built.  The verification suites certify the germ groupoids
    through their element maps instead (``actions.certify_germ_groupoid``),
    which shares this function's shape, range and basis checks
    (``check_arrays``).

    After the array shapes and ranges, the checks run in this order, each
    reporting its first witness: the units in ``units`` order; range, source
    and inverse of each arrow in index order; the defined products, the
    composable pairs and the inverse laws over pairs (g, h) row-major;
    associativity over triples (g, h, k) row-major (``_associativity_scan``).
    """
    n = G.n_arrows
    r, d, inv, table = G.r, G.d, G.inv, G.table
    units = check_arrays(G)
    not_idempotent = (table[units, units] != units) | (inv[units] != units)
    not_own = (r[units] != units) | (d[units] != units)
    hit = first_index(not_idempotent | not_own)
    if hit is not None:
        (i,) = hit
        u = int(units[i])
        raise StructureError(f"unit {u} fails u = u.u = u^-1" if not_idempotent[i]
                             else f"unit {u} is not its own range/source")
    is_unit = G.unit_mask
    arrows = np.arange(n)
    ends_off_units = ~(is_unit[r] & is_unit[d])
    bad_right = table[arrows, inv] != r
    bad_left = table[inv, arrows] != d
    hit = first_index(ends_off_units | bad_right | bad_left)
    if hit is not None:
        (a,) = hit
        raise StructureError(f"range/source of arrow {a} is not a unit" if ends_off_units[a]
                             else f"arrow {a}: a.a^-1 is not r(a)" if bad_right[a]
                             else f"arrow {a}: a^-1.a is not d(a)")
    defined = table >= 0
    composable = d[:, None] == r
    stray = defined & ~composable
    moved = defined & ((r[table] != r[:, None]) | (d[table] != d))
    hit = first_index(stray | moved)
    if hit is not None:
        g, h = hit
        raise StructureError(f"composition defined on non-composable ({g},{h})" if stray[g, h]
                             else f"composition ({g},{h}) breaks range/source")
    hit = first_index(composable & ~defined)
    if hit is not None:
        raise StructureError("composability mismatch at ({},{})".format(*hit))
    left, right = np.nonzero(defined)
    product = table[left, right]
    hit = first_index((table[inv[left], product] != right) | (table[product, inv[right]] != left))
    if hit is not None:
        (i,) = hit
        raise StructureError(f"inverse laws fail at ({left[i]},{right[i]})")
    _associativity_scan(G, left, right, product)
    return G


def check_arrays(G: FiniteGroupoid) -> np.ndarray:
    """Check the shapes and ranges of G's arrays and its basis, and return
    its units as an array: the first checks of ``validate_groupoid`` and of
    ``actions.certify_germ_groupoid``, each failure named by its message."""
    n = G.n_arrows
    r, d, inv, table = G.r, G.d, G.inv, G.table
    units = np.asarray(G.units, dtype=np.intp)
    if table.shape != (n, n) or any(a.shape != (n,) for a in (r, d, inv)):
        raise StructureError(f"composition table and arrow arrays must cover {n} arrows")
    rows, sets = G.cuts.rows, G.cuts.sets
    if (rows.ndim != 2 or rows.dtype.kind != "i" or sets.dtype != bool
            or rows.shape[0] != len(G.cuts.row_labels)
            or sets.shape != (len(G.cuts.set_labels), rows.shape[1])):
        raise StructureError("basis must be labeled integer rows and labeled boolean sets"
                             " over one set of points")
    if ((rows < -1) | (rows >= n)).any():
        raise StructureError("basis row entry out of range")
    if ((table < -1) | (table >= n)).any():
        raise StructureError("composition table entry out of range")
    ends = np.concatenate((r, d, inv, units))
    if ((ends < 0) | (ends >= n)).any():
        raise StructureError("range, source, inverse or unit out of range")
    return units


def _associativity_scan(G: FiniteGroupoid, left: np.ndarray, right: np.ndarray,
                        product: np.ndarray) -> None:
    """Compare (gh)k with g(hk) on every composable triple and raise the
    row-major first failure; (left, right, product) are the composable
    pairs (g, h, gh) of G, row-major, which passed every check of
    ``validate_groupoid`` before associativity.

    Products keep their ranges and sources, so (gh)k and g(hk) are both
    undefined unless r(k) = d(h): each pair is compared on the fiber
    r^-1(d h) only, a row of one padded matrix of the fibers, each in
    increasing order and padded with -1.  The table gets a -1 row and
    column, so that a pad k gives (gh)k = -1 = g(hk).  The pairs run in
    ``chunks``; the first failing pair and its least failing k is the
    row-major witness.
    """
    n = G.n_arrows
    r, d = G.r, G.d
    ranged = np.full((n + 1, n + 1), -1, dtype=np.intp)
    ranged[:n, :n] = G.table
    size = np.bincount(r, minlength=n)
    by_range = np.argsort(r, kind="stable")
    fiber = np.full((n, size.max(initial=0)), -1, dtype=np.intp)
    fiber[r[by_range], np.arange(n) - (np.cumsum(size) - size)[r[by_range]]] = by_range
    for rows in chunks(left.size, fiber.shape[1]):
        g, h = left[rows, None], right[rows, None]
        k = fiber[d[right[rows]]]
        hit = first_index(ranged[product[rows, None], k] != ranged[g, ranged[h, k]])
        if hit is not None:
            i, j = hit
            raise StructureError(f"associativity fails at ({g[i, 0]},{h[i, 0]},{k[i, j]})")


def discrete_groupoid(r, d, inv, table, labels=None) -> FiniteGroupoid:
    """Assemble a groupoid from its arrays and composition table (-1 where
    undefined), unvalidated; units are derived, and the basis is discrete:
    one singleton cut {a} per arrow a."""
    r, d, inv, table = (np.asarray(a, dtype=np.intp) for a in (r, d, inv, table))
    n = len(r)
    units = tuple(sorted({*r.tolist(), *d.tolist()}))
    if labels is None:
        labels = tuple(f"g{a}" for a in range(n))
    discrete = Cuts(np.arange(n)[:, None], np.ones((1, 1), dtype=bool), tuple(labels), ("",),
                    "{{{}}}")
    return FiniteGroupoid(n, r, d, inv, table, units, tuple(labels), discrete)


def make_groupoid(r, d, inv, table, labels=None) -> FiniteGroupoid:
    """``discrete_groupoid``, validated."""
    return validate_groupoid(discrete_groupoid(r, d, inv, table, labels))


# ---------------------------------------------------------------------------
# isotropy and the basis-driven topology


def iso_bundle(G: FiniteGroupoid) -> np.ndarray:
    return G.isotropy


def interior_witnesses(G: FiniteGroupoid, subset: np.ndarray) -> dict[int, str]:
    """Interior points of an arrow mask, each with the first basis witness.

    The witness of an arrow is its first cut (s, j) inside the mask: the
    least row s in which it is covered, and in that row the least good j at
    its point.  An earlier cut with the same set would be inside the mask
    too, so the witness is its set's first cut and carries its name.
    """
    cuts = G.cuts
    good = cuts.good(subset)
    s, x = np.nonzero(cuts.covered(good))      # row-major: the least s first
    if not s.size:
        return {}
    arrows, first = np.unique(cuts.rows[s, x], return_index=True)
    s, x = s[first], x[first]
    j = (good[s] & cuts.sets.T[x]).argmax(axis=1)
    return {a: cuts.label(b, c) for a, b, c in zip(arrows.tolist(), s.tolist(), j.tolist())}


def interior(G: FiniteGroupoid, subset: np.ndarray) -> np.ndarray:
    """The interior of an arrow mask: the union of the basis sets inside it."""
    cuts = G.cuts
    out = np.zeros(G.n_arrows, dtype=bool)
    out[cuts.rows[cuts.covered(cuts.good(subset))]] = True
    return out


def iso_interior(G: FiniteGroupoid) -> np.ndarray:
    return G.isotropy_interior


def is_open(G: FiniteGroupoid, subset: np.ndarray) -> bool:
    return np.array_equal(interior(G, subset), subset)


def is_closed(G: FiniteGroupoid, subset: np.ndarray) -> bool:
    return is_open(G, ~subset)


def is_group_bundle(G: FiniteGroupoid) -> bool:
    return bool((G.r == G.d).all())


def is_essentially_principal(G: FiniteGroupoid) -> bool:
    return np.array_equal(iso_interior(G), G.unit_mask)


def is_effective(G: FiniteGroupoid) -> bool:
    """No nonempty basic open set off the units consists of isotropy only."""
    return not G.cuts.good(G.isotropy & ~G.unit_mask).any()


def fiber_group(G: FiniteGroupoid, u: int) -> FiniteGroup:
    """The isotropy group at a unit, extracted as a one-unit groupoid."""
    if u not in G.units:
        raise StructureError(f"{u} is not a unit")
    sub, _ = extract_subgroupoid(G, (G.r == u) & (G.d == u))
    return FiniteGroup(sub)


@dataclass(frozen=True)
class SubgroupoidProperties:
    is_subgroupoid: bool
    open: bool
    closed: bool
    wide: bool
    normal: bool


def is_subgroupoid(G: FiniteGroupoid, inside: np.ndarray) -> bool:
    arrows = np.flatnonzero(inside)
    products = G.table[arrows[:, None], arrows]
    return bool(inside[G.inv[arrows]].all() and inside[products[products >= 0]].all())


def is_normal_in(G: FiniteGroupoid, inside: np.ndarray) -> bool:
    """gamma^-1 . H . gamma stays inside H wherever the conjugation composes."""
    left = G.table[G.inv[:, None], np.flatnonzero(inside)]    # gamma^-1 h, per gamma
    conj = G.table[left, np.arange(G.n_arrows)[:, None]]       # (gamma^-1 h) gamma
    return bool(((left < 0) | (conj < 0) | inside[conj]).all())


def subgroupoid_properties(G: FiniteGroupoid, subset: np.ndarray) -> SubgroupoidProperties:
    return SubgroupoidProperties(
        is_subgroupoid=is_subgroupoid(G, subset),
        open=is_open(G, subset),
        closed=is_closed(G, subset),
        wide=bool(subset[G.unit_mask].all()),
        normal=is_normal_in(G, subset),
    )


def extract_subgroupoid(G: FiniteGroupoid, subset: np.ndarray
                        ) -> tuple[FiniteGroupoid, np.ndarray]:
    """A standalone copy of an arrow mask, with the subspace basis.

    Returns the copy and the index array from its arrows back to G's.  A
    subset closed under inverses and composition holds r(a) = a a^-1 and
    d(a) = a^-1 a for each of its arrows, so the copy is a groupoid and is
    not validated again.  Its table and its basis rows are gathers of G's,
    renumbered by the index row from G's arrows to the copy's (-1 off the
    subset), so each cut becomes its intersection with the subset; the
    sets and labels are G's, each label marked "|sub".  The mask of every
    arrow returns G itself, not a copy equal to it.
    """
    if subset.all():
        return G, np.arange(G.n_arrows)
    if not is_subgroupoid(G, subset):
        raise StructureError("arrow set is not a subgroupoid")
    order = np.flatnonzero(subset)
    back = np.full(G.n_arrows, -1, dtype=np.intp)
    back[order] = np.arange(order.size)
    table = compose_after(back, G.table[order[:, None], order])
    back_of = back.tolist()
    labels = tuple(G.label(a) for a in order.tolist())
    cuts = replace(G.cuts, rows=compose_after(back, G.cuts.rows), form=G.cuts.form + "|sub")
    units = tuple(sorted(back_of[u] for u in G.units if back_of[u] >= 0))
    H = FiniteGroupoid(order.size, back[G.r[order]], back[G.d[order]], back[G.inv[order]],
                       table, units, labels, cuts)
    return H, order


def group_as_groupoid(table, labels=None) -> FiniteGroupoid:
    """A group multiplication table as a one-unit groupoid."""
    table = np.asarray(table, dtype=np.intp)
    n = len(table)
    x = np.arange(n)
    identities = np.flatnonzero((table == x).all(axis=1) & (table.T == x).all(axis=1))
    if not identities.size:
        raise StructureError("table has no identity")
    identity = identities[0]
    solves = table == identity
    if not (solves.sum(axis=1) == 1).all():
        raise StructureError("table is not a group")
    r = np.full(n, identity)
    return make_groupoid(r, r, solves.argmax(axis=1), table, labels)


# ---------------------------------------------------------------------------
# homomorphisms and isomorphism search


def validate_hom(hom: GroupoidHom) -> GroupoidHom:
    """Check that the map sends units to units and composable pairs to
    composable pairs multiplicatively, reporting the first failing unit in
    ``units`` order and the first failing pair in ``comp`` order."""
    S, T = hom.source, hom.target
    m = np.asarray(hom.map, dtype=np.intp)
    if len(m) != S.n_arrows:
        raise StructureError("hom map has wrong length")
    hit = first_index(~T.unit_mask[m[list(S.units)]])
    if hit is not None:
        raise StructureError(f"unit {S.units[hit[0]]} does not map to a unit")
    g, h, gh = m[S.comp.T]
    apart = T.d[g] != T.r[h]
    hit = first_index(apart | (T.table[g, h] != gh))
    if hit is not None:
        (i,) = hit
        pair = f"({S.comp[i, 0]},{S.comp[i, 1]})"
        raise StructureError(f"hom breaks composability at {pair}" if apart[i]
                             else f"hom is not multiplicative at {pair}")
    return hom


def is_strongly_surjective(hom: GroupoidHom) -> bool:
    """Each source fiber maps onto the whole target fiber at the image unit.

    One comparison for all units: the pairs (i, m a) that the map hits over
    the arrows a out of the i-th unit u, as a set, against the pairs (i, b)
    with d(b) = m u, both coded row-major.  An image outside the target's
    arrows lies in no target fiber."""
    S, T = hom.source, hom.target
    m = np.asarray(hom.map, dtype=np.intp)
    units = np.asarray(S.units, dtype=np.intp)
    place = np.full(S.n_arrows, -1, dtype=np.intp)       # a unit's place in units
    place[units] = np.arange(units.size)
    source = place[S.d]
    out = source >= 0                                      # the arrows out of a listed unit
    image = m[out]
    if ((image < 0) | (image >= T.n_arrows)).any():
        return False
    i, b = np.nonzero(m[units][:, None] == T.d)           # row-major, so already in order
    return np.array_equal(distinct(source[out] * T.n_arrows + image), i * T.n_arrows + b)


def hom_kernel(hom: GroupoidHom) -> np.ndarray:
    """The source arrows mapped to units, as a mask."""
    return hom.target.unit_mask[np.asarray(hom.map, dtype=np.intp)]


def groupoid_isomorphic(G1: FiniteGroupoid, G2: FiniteGroupoid
                        ) -> tuple[int, ...] | None:
    """Backtracking isomorphism search; None when no isomorphism exists."""
    if G1.n_arrows > ISO_SEARCH_CAP or G2.n_arrows > ISO_SEARCH_CAP:
        raise SearchBudgetExceeded(f"isomorphism search capped at {ISO_SEARCH_CAP} arrows")
    if G1.n_arrows != G2.n_arrows or len(G1.units) != len(G2.units):
        return None

    def unit_profile(G: FiniteGroupoid, u: int):
        at_r, at_d = G.r == u, G.d == u
        return (int(at_d.sum()), int(at_r.sum()), int((at_r & at_d).sum()))

    n = G1.n_arrows
    r1, d1, inv1, t1 = (a.tolist() for a in (G1.r, G1.d, G1.inv, G1.table))
    r2, d2, inv2, t2 = (a.tolist() for a in (G2.r, G2.d, G2.inv, G2.table))
    mapping: list[int | None] = [None] * n
    used = [False] * n

    def undo(newly: list[int]) -> None:
        for z in newly:
            used[mapping[z]] = False
            mapping[z] = None

    def assign(a: int, b: int) -> list[int] | None:
        """Try mapping a -> b; returns newly assigned arrows or None."""
        stack = [(a, b)]
        newly: list[int] = []
        while stack:
            x, y = stack.pop()
            if mapping[x] is not None:
                if mapping[x] != y:
                    undo(newly)
                    return None
                continue
            if used[y] or (x in G1.units) != (y in G2.units):
                undo(newly)
                return None
            mapping[x] = y
            used[y] = True
            newly.append(x)
            stack.append((inv1[x], inv2[y]))
            stack.append((r1[x], r2[y]))
            stack.append((d1[x], d2[y]))
            for z in range(n):
                if mapping[z] is None:
                    continue
                for (p, q) in ((x, z), (z, x)):
                    if d1[p] == r1[q]:
                        if d2[mapping[p]] != r2[mapping[q]]:
                            undo(newly)
                            return None
                        stack.append((t1[p][q], t2[mapping[p]][mapping[q]]))
        return newly

    def search(i: int) -> bool:
        while i < n and mapping[i] is not None:
            i += 1
        if i == n:
            return True
        for b in range(n):
            if used[b]:
                continue
            if i in G1.units and unit_profile(G1, i) != unit_profile(G2, b):
                continue
            newly = assign(i, b)
            if newly is not None:
                if search(i + 1):
                    return True
                undo(newly)
        return False

    if search(0):
        result = tuple(mapping)  # type: ignore[arg-type]
        validate_hom(GroupoidHom(G1, G2, result))
        return result
    return None
