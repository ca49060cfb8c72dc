"""Inverse semigroup actions on finite sets and their groupoids of germs.

An action assigns each semigroup element a partial bijection of the space so
that composition is respected, the domain of each element equals the domain
of its idempotent s*s, and the idempotent domains cover the space.  The
partial bijections are the rows of one integer array, one row of point
indices per element with -1 where the element is undefined, composed by
``semilattices.compose_after``.  The two canonical actions move the filters
of the idempotent semilattice around: the universal one on all filters, the
tight one on the ultrafilters.  Filters are principal, so a point is named
by its generator, an index into E (``spectrum_points``, and ``atoms`` for
the tight one), and both actions are gathers of the multiplication table.

Germs: pairs (s, x) with x in the domain of s, identified when the two
elements agree after restriction to an idempotent whose domain contains x.
The resulting arrows form a groupoid whose topology basis consists of the
sets Theta(s, U) = {germ(s, x) : x in U} for U in the declared basis of the
space.  The space's basis is a pair: one boolean row per set over the
points, and the sets' labels.  The germs are numbered into ``germ_at``, an
(elements, points) array with -1 outside each domain, in the shape of the
action's rows; the groupoid's composition table is one gather of it,
[t, s x] [s, x] = germ_at[t s, x], and its basis is carried in index form
as ``germ_at`` beside the space's rows (``groupoids.Cuts``): Theta(s, U) is
the cut of row s by U, read off when a predicate needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .congruences import related_products
from .errors import (
    CyclicGraph,
    DomainMismatch,
    NotCovering,
    NotHomomorphism,
    NotSubsemigroup,
    SizeBudgetExceeded,
    StructureError,
)
from .groupoids import (
    Cuts,
    FiniteGroupoid,
    SubgroupoidProperties,
    check_arrays,
    extract_subgroupoid,
    subgroupoid_properties,
)
from .semigroups import (
    GRAPH_TABLE_ENTRIES,
    TABLE_CAP,
    InverseSemigroup,
    Relation,
    centralizer,
    chunks,
    distinct,
    first_index,
    validate_inverse_semigroup,
)
from .semilattices import (
    Semilattice,
    atoms,
    compose_after,
    semilattice_of,
    spectrum_basis,
    spectrum_points,
)

# validate_action certifies the homomorphism law on the domain pairs (t, x)
# alone, not on whole rows, when the defined entries are under this share of
# the map: the two certificates cost the same at about 15% defined on maps
# of a few hundred entries and at about 28% on maps of over ten thousand
SPARSE_ACTION_SHARE = 0.2


@dataclass
class Action:
    """A validated action: row s of maps is the partial bijection of element s.

    maps is an (elements, points) integer array; maps[s, x] is the image of
    point x under s, or -1 when x is outside the domain of s.
    """

    semigroup: InverseSemigroup
    space_size: int
    maps: np.ndarray
    point_labels: tuple[str, ...]
    space_basis: tuple[np.ndarray, tuple[str, ...]] | None = None


def validate_action(S: InverseSemigroup, space_size: int, maps,
                    point_labels=None, space_basis=None) -> Action:
    """Check the homomorphism, domain, and covering conditions exhaustively.

    The homomorphism law phi_s after phi_t = phi_{st} is certified for the
    elements s of the semigroup's generating set and every t.  That
    suffices: when it holds for a and for b, phi_{ab} = phi_a phi_b (take
    t = b) and then phi_{ab} phi_t = phi_a phi_{bt} = phi_{a(bt)} =
    phi_{(ab)t}, so the elements satisfying it are closed under products,
    and S is associative.  A dense map composes a stack of generators after
    every row per gather; a sparse one, with defined entries under
    ``SPARSE_ACTION_SHARE`` of the map, is compared on its domain pairs
    only (``_law_on_domains``).  Only when the certificate fails does the
    row-by-row scan run, to name the first failing pair.

    Each condition reports the first failing element in element order, and
    the homomorphism condition the first failing pair (s, t) in row-major
    order.
    """
    maps = np.asarray(maps, dtype=np.intp)
    if maps.ndim != 2 or maps.shape[0] != S.size:
        raise StructureError("one partial map per element required")
    if maps.shape[1] != space_size:
        raise StructureError("map of element 0 has wrong length")
    outside = ((maps < -1) | (maps >= space_size)).any(axis=1)
    ranked = np.sort(maps, axis=1)
    repeated = ((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] >= 0)).any(axis=1)
    s = int(np.argmax(outside | repeated))
    if outside[s]:
        raise StructureError(f"map of element {s} leaves the space")
    if repeated[s]:
        raise NotHomomorphism(s, s)
    domain = maps >= 0
    idem_of = S.table[S.inv, np.arange(S.size)]          # s*s
    wrong = (domain != domain[idem_of]).any(axis=1)
    if wrong.any():
        raise DomainMismatch(int(np.argmax(wrong)))
    if np.count_nonzero(domain) < SPARSE_ACTION_SHARE * maps.size:
        certified = _law_on_domains(S, maps, domain)
    else:
        gens = S.generators
        certified = all(np.array_equal(compose_after(maps[a], maps), maps[S.table[a]])
                        for a in (gens[rows] for rows in chunks(gens.size, maps.size)))
    if not certified:
        for s in S.elements():
            bad = (compose_after(maps[s], maps) != maps[S.table[s]]).any(axis=1)
            if bad.any():
                raise NotHomomorphism(s, int(np.argmax(bad)))
    if not domain[S.idempotent_array].any(axis=0).all():
        raise NotCovering()
    if point_labels is None:
        point_labels = tuple(f"x{p}" for p in range(space_size))
    return Action(S, space_size, maps, tuple(point_labels), space_basis)


def _law_on_domains(S: InverseSemigroup, maps: np.ndarray, domain: np.ndarray) -> bool:
    """Whether phi_a phi_t = phi_(at) for every generator a and element t,
    read on the domain pairs (t, x), x in dom t, for ``chunks`` of
    generators.

    At x in dom t, phi_a(phi_t x) is compared with phi_(at)(x) (both
    undefined when phi_t x is outside dom a).  At x outside dom t, phi_a
    phi_t is undefined, and so must phi_(at) be: dom(at) lies inside dom t
    exactly when |dom t & dom(at)| = |dom(at)|.  Each term of the left is
    at most its term on the right, so one count per stack of generators,
    the defined phi_(at)(x) over all (a, t, x) against the sum of
    |dom(at)|, checks every (a, t) at once.
    """
    t, x = np.nonzero(domain)
    image = maps[t, x]
    size = np.count_nonzero(domain, axis=1)
    gens = S.generators
    for rows in chunks(gens.size, t.size):
        a = gens[rows, None]
        after = maps[S.table[a, t], x]         # phi_(at)(x)
        if ((maps[a, image] != after).any()
                or np.count_nonzero(after >= 0) != size[S.table[a]].sum()):
            return False
    return True


def spectrum_action(S: InverseSemigroup, points: np.ndarray, E: Semilattice) -> Action:
    """Filters of E move by s.F = upward closure of {s e s* : e in F}.

    A point is a generator g in E, the filter up(g), and s acts on it when
    g <= s*s.  Conjugation by s preserves order on the idempotents below
    s*s, so s.up(g) = up(s g s*), and the action is a gather of the table:
    the point of up(s g s*) for each element s and generator g.  The order
    of the points is preserved, so callers may align point indices across
    related semigroups; an image outside them is an error.
    """
    T, inv = S.table, S.inv
    elements = np.arange(S.size)
    gens = E.parent_index[points]
    point_of = np.full(S.size, -1, dtype=np.intp)
    point_of[gens] = np.arange(gens.size)
    acts = T[gens, T[inv, elements][:, None]] == gens              # g <= s*s
    images = point_of[T[T[elements[:, None], gens], inv[:, None]]]  # up(s g s*)
    if (acts & (images < 0)).any():
        raise StructureError("action image is not a filter of the spectrum")
    maps = np.where(acts, images, -1)
    labels = tuple(f"up({E.label(g)})" for g in points.tolist())
    return validate_action(S, points.size, maps, labels, spectrum_basis(E, points))


def universal_action(S: InverseSemigroup) -> Action:
    """The action on every filter of the idempotent semilattice."""
    E = semilattice_of(S)
    return spectrum_action(S, spectrum_points(E), E)


def tight_action(S: InverseSemigroup) -> Action:
    """The universal action's gather on the atoms of E, the tight spectrum."""
    E = semilattice_of(S)
    return spectrum_action(S, atoms(E), E)


def action_kernel(action: Action) -> np.ndarray:
    """Products s.t* over pairs acted on identically, as an element mask.

    That this is the normal subsemigroup of elements acting as identities is
    checked by ``tight.base_dichotomy_universal`` and ``_tight``.
    """
    return related_products(action.semigroup, Relation(action.maps))


def domains_form_base(action: Action) -> bool:
    """Finite-discrete reading: every singleton must be some idempotent's domain."""
    domains = action.maps[action.semigroup.idempotent_array] >= 0
    return bool(domains[domains.sum(axis=1) == 1].any(axis=0).all())


@dataclass
class GermGroupoid:
    """The groupoid of germs of an action, with lookups back to (element, point).

    germ_at is an (elements, points) integer array: germ_at[s, x] is the
    arrow [s, x], or -1 when x is outside the domain of s; every lookup is
    an intp array.
    """

    action: Action
    groupoid: FiniteGroupoid
    unit_at_point: np.ndarray                 # point -> its unit [m_x, x]
    germ_at: np.ndarray
    rep_of: np.ndarray                        # row a: arrow a's canonical (element, point)
    base_idempotent: np.ndarray               # point -> least idempotent acting there

    def germs_of(self, elements) -> np.ndarray:
        """The arrows [s, x] over the elements s, as an arrow mask; elements
        selects rows of ``germ_at``: an element mask or an index array."""
        arrows = self.germ_at[elements]
        out = np.zeros(self.groupoid.n_arrows, dtype=bool)
        out[arrows[arrows >= 0]] = True
        return out

    @cached_property
    def principal_points(self) -> np.ndarray:
        """Per element e, the first point x with m_x = e (for an idempotent,
        its principal filter), or the number of points where no point has
        m_x = e: one scatter of ``base_idempotent``."""
        base = self.base_idempotent
        point = np.full(self.action.semigroup.size, base.size, dtype=np.intp)
        np.minimum.at(point, base, np.arange(base.size))
        return point

    def principal_point(self, e: int) -> int:
        """The point whose least acting idempotent is e (its principal filter)."""
        x = int(self.principal_points[e])
        if x == self.base_idempotent.size:
            raise StructureError(f"no point is generated by idempotent {e}")
        return x

    def canonical_elements(self, arrows: np.ndarray) -> np.ndarray:
        """The canonical element s m_x of each germ [s, x] in an arrow array."""
        s, x = self.rep_of[arrows].T
        return self.action.semigroup.table[s, self.base_idempotent[x]]


def certify_germ_groupoid(germs: GermGroupoid) -> None:
    """Certify that the germs form a groupoid by their element map, each
    failure with its first witness.

    The map is c([s, x]) = s m_x, read from ``rep_of`` and
    ``base_idempotent``.  After the shapes and ranges of the arrays
    (``groupoids.check_arrays``) and of the lookups, the checks run in this
    order: per point x, m_x is an idempotent acting at x and below every
    idempotent acting at x; each arrow's representative (s, x) has x in the
    domain of s; c is injective (the first arrow whose element an earlier
    arrow has); per arrow g, in index order, c(r g) = c(g)c(g)*,
    c(d g) = c(g)*c(g) and c(g^-1) = c(g)*; the listed units are exactly
    the arrows whose element is idempotent; over the pairs (g, h)
    row-major, gh is defined exactly where d g = r h, and there
    c(gh) = c(g)c(h); over the pairs (s, x) row-major, germ_at[s, x] is an
    arrow exactly where x is in the domain of s, and there
    c(germ_at[s, x]) = s m_x.  Each of the last two reads only the defined
    entries, with a count against the composable pairs or the domain pairs;
    only when it fails is the whole array compared, to name the witness.

    Why that suffices.  The semigroup S is a validated inverse semigroup,
    so its restricted product, with s.t = st defined where s*s = tt*,
    range ss*, source s*s and inverse s*, is a groupoid: its laws are S's
    associativity and inverse laws.  Since c is injective, d g = r h
    exactly when c(g)*c(g) = c(h)c(h)*, so c carries composability,
    products, ranges, sources, inverses and units to the restricted
    product's, and G is isomorphic to the subgroupoid c(G) of it.  Each
    groupoid axiom therefore holds in G: its two sides have one element,
    and c is injective.  No triple is scanned.  By the last check and
    injectivity, germ_at[rep_of[a]] = a, so every arrow is the germ of its
    representative, and as m_x is least, s m_x = t m_x exactly when s and t
    agree on an idempotent acting at x: germ_at names the germs.  The rest
    does not imply minimality: the chain c0 < c1 < c2 with m_x = c2 at its
    tight point, [c1, x] and [c2, x] two units, passes every other check.
    """
    G, action = germs.groupoid, germs.action
    S, maps = action.semigroup, action.maps
    n = G.n_arrows
    check_arrays(G)
    rep_of, germ_at = germs.rep_of, germs.germ_at
    base = germs.base_idempotent
    if (rep_of.shape != (n, 2) or base.shape != (action.space_size,)
            or germ_at.shape != maps.shape):
        raise StructureError("germ lookups must cover the arrows, the points and the elements")
    if (((rep_of < 0) | (rep_of >= (S.size, action.space_size))).any()
            or ((base < 0) | (base >= S.size)).any() or ((germ_at < -1) | (germ_at >= n)).any()):
        raise StructureError("germ lookup entry out of range")
    T, E, arrows = S.table, S.idempotent_array, np.arange(n)
    above = (maps[E] < 0) | (T[E[:, None], base] == base)     # [e, x]: m_x <= e if e acts at x
    least = S.idempotent_mask[base] & (maps[base, np.arange(base.size)] >= 0) & above.all(axis=0)
    hit = first_index(~least)
    if hit is not None:
        (x,) = hit
        raise StructureError(f"point {x}: {base[x]} is not the least idempotent acting there")
    s, x = rep_of.T
    hit = first_index(maps[s, x] < 0)
    if hit is not None:
        (a,) = hit
        raise StructureError(f"arrow {a}: representative ({s[a]},{x[a]}) is outside the domain")
    c = germs.canonical_elements(arrows)
    first = np.full(S.size, n, dtype=np.intp)
    np.minimum.at(first, c, arrows)
    hit = first_index(first[c] != arrows)
    if hit is not None:
        (b,) = hit
        raise StructureError(f"arrows {first[c[b]]} and {b} have the same element {c[b]}")
    star = S.inv[c]
    bad_range = c[G.r] != T[c, star]
    bad_source = c[G.d] != T[star, c]
    bad_inverse = c[G.inv] != star
    hit = first_index(bad_range | bad_source | bad_inverse)
    if hit is not None:
        (g,) = hit
        raise StructureError(f"arrow {g}: c(r g) is not c(g)c(g)*" if bad_range[g]
                             else f"arrow {g}: c(d g) is not c(g)*c(g)" if bad_source[g]
                             else f"arrow {g}: c(g^-1) is not c(g)*")
    hit = first_index(G.unit_mask != S.idempotent_mask[c])
    if hit is not None:
        (g,) = hit
        raise StructureError(f"unit {g} has a non-idempotent element" if G.unit_mask[g]
                             else f"arrow {g} has an idempotent element but is not a unit")
    pairs = np.flatnonzero(G.table >= 0)            # the defined (g, h), row-major
    g, h = np.divmod(pairs, n)
    count = np.bincount(G.d, minlength=n) @ np.bincount(G.r, minlength=n)  # composable pairs
    if not ((G.d[g] == G.r[h]).all() and pairs.size == count
            and (c[G.table.ravel()[pairs]] == T[c[g], c[h]]).all()):
        defined, composable = G.table >= 0, G.d[:, None] == G.r
        g, h = first_index((defined != composable)
                           | (defined & (c[G.table] != T[c[:, None], c])))
        raise StructureError(f"composition defined on non-composable ({g},{h})"
                             if not composable[g, h]
                             else f"composability mismatch at ({g},{h})" if not defined[g, h]
                             else f"element map is not multiplicative at ({g},{h})")
    pairs = np.flatnonzero(maps >= 0)               # the domain pairs (s, x), row-major
    s, x = np.divmod(pairs, action.space_size)
    arrow = germ_at.ravel()[pairs]
    if not (np.count_nonzero(germ_at >= 0) == pairs.size and (arrow >= 0).all()
            and (c[arrow] == T[s, base[x]]).all()):
        domain, listed = maps >= 0, germ_at >= 0
        s, x = first_index((domain != listed) | (listed & (c[germ_at] != T[:, base])))
        raise StructureError(f"germ ({s},{x}) listed outside the domain of {s}" if not domain[s, x]
                             else f"germ ({s},{x}) missing in the domain of {s}" if not listed[s, x]
                             else f"germ ({s},{x}) is not the arrow of its element")


def _least_acting_idempotents(action: Action) -> np.ndarray:
    """Per point x, the candidate m_x for the least idempotent acting at x,
    or -1 where no idempotent acts.

    In a valid action the domain of ef is that of e meet that of f, so the
    idempotents acting at x are closed under products, and their product is
    the one of them below all the others in the natural order: the acting
    idempotent with the most acting idempotents above it.  That one is the
    candidate in any action; ``germ_equivalence_is_equivalence`` certifies
    that it lies below the others.  The counts stay below 2^24, so the
    float32 product is exact.
    """
    S = action.semigroup
    E = S.idempotent_array
    acting = action.maps[E] >= 0                                   # [e, x]
    above = S.leq[np.ix_(E, E)].astype(np.float32) @ acting.astype(np.float32)
    return np.where(acting.any(axis=0), E[np.where(acting, above, -1).argmax(axis=0)], -1)


def germ_groupoid(action: Action) -> GermGroupoid:
    """Build the groupoid of germs with its Theta(s, U) basis in index form.

    Two pairs (s, x), (t, x) give the same germ exactly when s e = t e for an
    idempotent e acting around x; since the idempotents around x are closed
    under meets, the product s m_x with the least of them, m_x, is a complete
    invariant, and the first pair with a given invariant is the canonical
    representative.  m_x is read off the natural order, one mask for all
    points.  Arrows are numbered point by point, in the order of their first
    pair (s, x) by element.  The product is one gather:
    [t, s x] [s, x] = [t s, x].  The basis is ``germ_at`` cut by the unit
    catalog (the space's basis, or when none is declared the idempotents'
    domains and the singletons): the sets Theta(s, U), over elements s,
    then the unit catalog, neither formed nor deduplicated here (see
    ``groupoids.Cuts``).  That the germs form a groupoid is a theorem,
    checked by the verification suites rather than here.
    """
    S = action.semigroup
    maps = action.maps
    n_pts = action.space_size
    min_idem = _least_acting_idempotents(action)
    if (min_idem < 0).any():
        raise NotCovering()

    xs, ss = np.nonzero(maps.T >= 0)              # the pairs (s, x), point by point
    invariant = S.table[ss, min_idem[xs]]
    least = np.full(maps.shape, S.size, dtype=np.intp)
    np.minimum.at(least, (invariant, xs), ss)     # the first element of each germ
    canonical = least[invariant, xs] == ss
    rep_s, rep_x = ss[canonical], xs[canonical]
    germ_at = np.full(maps.shape, -1, dtype=np.intp)
    germ_at[rep_s, rep_x] = np.arange(rep_s.size)
    germ_at[ss, xs] = germ_at[least[invariant, xs], xs]

    unit_at_point = germ_at[min_idem, np.arange(n_pts)]
    image = maps[rep_s, rep_x]
    r, d = unit_at_point[image], unit_at_point[rep_x]
    inv = germ_at[S.inv[rep_s], image]
    g, h = np.nonzero(d[:, None] == r)
    table = np.full((rep_s.size, rep_s.size), -1, dtype=np.intp)
    table[g, h] = germ_at[S.table[rep_s[g], rep_s[h]], rep_x[h]]

    labels = tuple(f"[{S.label(s)}|{action.point_labels[x]}]"
                   for s, x in zip(rep_s.tolist(), rep_x.tolist()))

    if action.space_basis is not None:
        sets, set_labels = action.space_basis
    else:
        idems = S.idempotent_array
        domains = maps[idems] >= 0
        acting = domains.any(axis=1)
        sets = np.concatenate((domains[acting], np.eye(n_pts, dtype=bool)))
        set_labels = (tuple(f"D[{S.label(e)}]" for e in idems[acting].tolist())
                      + tuple(f"{{{label}}}" for label in action.point_labels))

    G = FiniteGroupoid(rep_s.size, r, d, inv, table, distinct(unit_at_point), labels,
                       Cuts(germ_at, sets, S.labels, set_labels, "Theta({},{})"))
    return GermGroupoid(action, G, unit_at_point, germ_at, np.stack([rep_s, rep_x], axis=1),
                        min_idem)


def germ_equivalence_is_equivalence(action: Action) -> bool:
    """Certify that germ identification is an equivalence on each fiber.

    At a point x, (s, x) ~ (t, x) iff se = te for some idempotent e in E_x,
    the idempotents acting at x.  The certificate: the candidate m_x of
    ``_least_acting_idempotents``, the one in the invariant s m_x of
    ``germ_groupoid``, lies below every e in E_x, one gather of the natural
    order over (E, points).  Then se = te gives s m_x = s e m_x = t e m_x =
    t m_x by associativity, and s m_x = t m_x is a witness with e = m_x, so
    ~ is the kernel of s -> s m_x and hence an equivalence.  Where an
    element acts at a point that no idempotent acts at, (s, x) is not
    related to itself.
    """
    S = action.semigroup
    E = S.idempotent_array
    least = _least_acting_idempotents(action)
    if ((action.maps >= 0).any(axis=0) & (least < 0)).any():
        return False
    acting = action.maps[E] >= 0          # all False at the points where least is -1
    return bool((S.leq[least, E[:, None]] | ~acting).all())


@dataclass(eq=False)
class EmbeddedSubgroupoid:
    """An arrow mask of a parent groupoid together with a standalone copy,
    whose arrow i is the parent's arrow ``to_parent[i]``."""

    parent: FiniteGroupoid
    arrows: np.ndarray
    groupoid: FiniteGroupoid
    to_parent: np.ndarray

    @cached_property
    def properties(self) -> SubgroupoidProperties:
        """The arrows' subgroupoid properties in the parent, computed once
        for the check ``groupoid.centralizer_subgroupoid`` and for what
        ``algebra.embed`` and ``algebra.conditional_expectation`` require."""
        return subgroupoid_properties(self.parent, self.arrows)


def induced_subgroupoid(germs: GermGroupoid, inside: np.ndarray) -> EmbeddedSubgroupoid:
    """Germs with a representative in a subsemigroup, given as an element
    mask that contains the idempotents.

    The closure checks report the first member a, in element order, whose
    inverse or whose products a b leave it, the inverse first.
    """
    S = germs.action.semigroup
    if (S.idempotent_mask & ~inside).any():
        raise NotSubsemigroup("subset must contain every idempotent")
    members = np.flatnonzero(inside)
    no_inverse = ~inside[S.inv[members]]
    no_product = ~inside[S.table[np.ix_(members, members)]].all(axis=1)
    hit = first_index(no_inverse | no_product)
    if hit is not None:
        raise NotSubsemigroup("subset must be closed under inverses" if no_inverse[hit[0]]
                              else "subset must be closed under products")
    chosen = germs.germs_of(inside)
    sub, order = extract_subgroupoid(germs.groupoid, chosen)
    return EmbeddedSubgroupoid(germs.groupoid, chosen, sub, order)


def centralizer_germs(germs: GermGroupoid) -> EmbeddedSubgroupoid:
    return induced_subgroupoid(germs, centralizer(germs.action.semigroup))


# ---------------------------------------------------------------------------
# graph inverse semigroups


@dataclass(frozen=True)
class DirectedGraph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]   # (tail, head): an arrow tail -> head

    def in_degree(self, v: int) -> int:
        return sum(1 for _, h in self.edges if h == v)


def _path_counts(graph: DirectedGraph) -> tuple[int, int]:
    """The number of paths, the sum of T(v), and of elements, 1 + the sum of
    T(v)^2, where T(v) counts the paths with tail v: T(v) = 1 + the sum of
    T(w) over the edges (v, w), run along Kahn's topological order
    backwards.  A vertex the order never reaches lies on a cycle: refused."""
    V = graph.n_vertices
    heads: list[list[int]] = [[] for _ in range(V)]
    into = [0] * V
    for tail, head in graph.edges:
        heads[tail].append(head)
        into[head] += 1
    order = [v for v in range(V) if not into[v]]
    for v in order:                 # Kahn's queue: the list grows as it is read
        for w in heads[v]:
            into[w] -= 1
            if not into[w]:
                order.append(w)
    if len(order) < V:
        raise CyclicGraph("graph inverse semigroup needs an acyclic graph")
    T = [1] * V
    for v in reversed(order):
        T[v] += sum(T[w] for w in heads[v])
    return sum(T), 1 + sum(t * t for t in T)


def _path_tables(graph: DirectedGraph):
    """The tail and label of every path, and the tables ``cat`` and ``rest``.

    A path is a head vertex and an edge sequence, each edge's head the tail
    of the edge before it.  The paths are the vertices, then breadth-first
    each path extended at its tail by each edge into that tail, in edge
    order.  Index P stands for no path.  cat[p, q] is p followed by q where
    the tail of p is the head of q, built a level of q at a time through
    ext[p, e], p extended by e; rest[u, y] is the z with u = y z where y is
    a prefix of u, cat read backwards.
    """
    V = graph.n_vertices
    edge_tail, edge_head = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T
    tail, parent, edge, bounds = [np.arange(V)], [np.full(V, -1)], [np.full(V, -1)], [0, V]
    while tail[-1].size:
        p, e = np.nonzero(tail[-1][:, None] == edge_head)
        tail.append(edge_tail[e])
        parent.append(bounds[-2] + p)
        edge.append(e)
        bounds.append(bounds[-1] + e.size)
    tail, parent, edge = map(np.concatenate, (tail, parent, edge))
    P = tail.size
    ext = np.full((P + 1, edge_head.size), P)
    ext[parent[V:], edge[V:]] = np.arange(V, P)
    cat = np.full((P + 1, P + 1), P)
    cat[np.arange(P), tail] = np.arange(P)              # p followed by the vertex at its tail
    for lo, hi in zip(bounds[1:], bounds[2:]):
        cat[:, lo:hi] = ext[cat[:, parent[lo:hi]], edge[lo:hi]]
    rest = np.full((P + 1, P + 1), P)
    p, q = np.nonzero(cat[:P, :P] < P)
    rest[cat[p, q], p] = q
    labels = [f"v{v}" for v in range(V)]
    for p, e in zip(parent[V:].tolist(), edge[V:].tolist()):
        labels.append(f"{labels[p] if p >= V else ''}e{e}")
    return tail, labels, cat, rest


def graph_inverse_semigroup(graph: DirectedGraph) -> InverseSemigroup:
    """Zero plus the elements x y* over paths x, y with a common tail.

    The graph must be acyclic so the path set is finite, and one whose
    semigroup has more than ``TABLE_CAP`` elements, or whose tables hold
    more than ``GRAPH_TABLE_ENTRIES`` entries, is refused before any path
    is listed; one with ``TABLE_CAP`` vertices or more, before its
    elements are counted.  The elements (x, y) are numbered row-major after
    the zero, whose two paths are the extra index P of ``_path_tables``.  Then
    (x y*)(u v*) is x z v* where u = y z, x (v z)* where y = u z, and the
    zero otherwise: gathers of cat and rest per chunk of rows.  The result
    keeps the graph as ``S.graph``.
    """
    if graph.n_vertices >= TABLE_CAP:     # before one list per vertex: |S| >= 1 + V
        raise SizeBudgetExceeded(f"graph inverse semigroup has at least "
                                 f"{graph.n_vertices + 1} elements > {TABLE_CAP}")
    P, n = _path_counts(graph)
    if n > TABLE_CAP:
        raise SizeBudgetExceeded(f"graph inverse semigroup has {n} elements > {TABLE_CAP}")
    entries = (P + 1) * (3 * P + 3 + len(graph.edges)) + n * n    # cat, rest, index, ext, table
    if entries > GRAPH_TABLE_ENTRIES:
        raise SizeBudgetExceeded(f"graph inverse semigroup tables hold {entries} entries > "
                                 f"{GRAPH_TABLE_ENTRIES}")
    tail, path, cat, rest = _path_tables(graph)
    x, y = (np.append(tail.size, a) for a in np.nonzero(tail[:, None] == tail))
    index = np.zeros_like(cat)                          # the element (x, y), 0 if none
    index[x, y] = np.arange(n)
    table = np.empty((n, n), dtype=np.int64)
    for rows in chunks(n, n):
        X, Y = x[rows, None], y[rows, None]
        table[rows] = np.maximum(index[cat[X, rest[x, Y]], y],
                                 index[X, cat[y, rest[Y, x]]])
    labels = ["0"] + [path[a] if a == b else f"{path[a]}.{path[b]}*"
                      for a, b in zip(x[1:].tolist(), y[1:].tolist())]
    S = validate_inverse_semigroup(table, labels)
    S.graph = graph
    return S
