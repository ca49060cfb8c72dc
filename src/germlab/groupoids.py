"""Finite groupoids with an explicit topology basis.

Arrows are indices 0..n-1; units are a subset of arrows.  The topology is
carried as a catalog of labeled basis sets, produced by the germ
construction.  Interior, openness and closedness consume only that catalog,
so the computations follow the basis-set definitions even though every
finite corpus groupoid ends up discrete.  Groupoids built directly (pair
groupoids, semidirect products, ...) default to the discrete basis and are
flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IncompatibleBundle,
    SearchBudgetExceeded,
    StructureError,
)

ISO_SEARCH_CAP = 64

Basis = tuple[tuple[str, frozenset[int]], ...]


@dataclass
class FiniteGroupoid:
    """Arrows with range/source/composition/inverse and a labeled open basis."""

    n_arrows: int
    r: tuple[int, ...]
    d: tuple[int, ...]
    inv: tuple[int, ...]
    comp: dict[tuple[int, int], int]
    units: tuple[int, ...]
    labels: tuple[str, ...]
    basis: Basis
    basis_declared: bool = True

    def arrows(self) -> range:
        return range(self.n_arrows)

    def label(self, a: int) -> str:
        return self.labels[a]

    def mul(self, g: int, h: int) -> int:
        return self.comp[(g, h)]

    def d_fiber(self, u: int) -> tuple[int, ...]:
        return tuple(a for a in self.arrows() if self.d[a] == u)

    def r_fiber(self, u: int) -> tuple[int, ...]:
        return tuple(a for a in self.arrows() if self.r[a] == u)

    @cached_property
    def comp_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Composition as index arrays (A, B, C), A[i] B[i] = C[i], in ``comp`` order."""
        abc = np.array([(a, b, c) for (a, b), c in self.comp.items()],
                       dtype=np.intp).reshape(-1, 3)
        A, B, C = np.ascontiguousarray(abc.T)
        return A, B, C

    @cached_property
    def inv_index(self) -> np.ndarray:
        return np.array(self.inv, dtype=np.intp)

    @cached_property
    def fiber_indices(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """Per unit, its d-fiber and the matrix [a b^-1] over rows a, columns b.

        a b^-1 is always composable inside a d-fiber, so the matrix indexes
        every arrow that the unit's regular-representation block reads.
        """
        out = []
        for u in self.units:
            fiber = self.d_fiber(u)
            idx = np.array([[self.comp[(a, self.inv[b])] for b in fiber] for a in fiber],
                           dtype=np.intp).reshape(len(fiber), len(fiber))
            out.append((fiber, idx))
        return tuple(out)

    def __repr__(self) -> str:
        return f"FiniteGroupoid(arrows={self.n_arrows}, units={len(self.units)})"


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


def discrete_basis(n: int, labels) -> Basis:
    return tuple((f"{{{labels[a]}}}", frozenset({a})) for a in range(n))


def validate_groupoid(G: FiniteGroupoid) -> FiniteGroupoid:
    """Exhaustively check the groupoid axioms and basis sanity."""
    n = G.n_arrows
    units = set(G.units)
    for u in G.units:
        if G.comp.get((u, u)) != u or G.inv[u] != u:
            raise StructureError(f"unit {u} fails u = u.u = u^-1")
        if G.r[u] != u or G.d[u] != u:
            raise StructureError(f"unit {u} is not its own range/source")
    for a in G.arrows():
        if G.r[a] not in units or G.d[a] not in units:
            raise StructureError(f"range/source of arrow {a} is not a unit")
        if G.comp.get((a, G.inv[a])) != G.r[a]:
            raise StructureError(f"arrow {a}: a.a^-1 is not r(a)")
        if G.comp.get((G.inv[a], a)) != G.d[a]:
            raise StructureError(f"arrow {a}: a^-1.a is not d(a)")
        if a not in units and G.r[a] == G.d[a] == a:
            raise StructureError(f"arrow {a} behaves like an undeclared unit")
    for (g, h), gh in G.comp.items():
        if G.d[g] != G.r[h]:
            raise StructureError(f"composition defined on non-composable ({g},{h})")
        if G.r[gh] != G.r[g] or G.d[gh] != G.d[h]:
            raise StructureError(f"composition ({g},{h}) breaks range/source")
    for g in G.arrows():
        for h in G.arrows():
            if (G.d[g] == G.r[h]) != ((g, h) in G.comp):
                raise StructureError(f"composability mismatch at ({g},{h})")
    for (g, h), gh in G.comp.items():
        if G.comp[(G.inv[g], gh)] != h or G.comp[(gh, G.inv[h])] != g:
            raise StructureError(f"inverse laws fail at ({g},{h})")
        for k in G.arrows():
            if G.d[h] == G.r[k]:
                if G.comp[(gh, k)] != G.comp[(g, G.comp[(h, k)])]:
                    raise StructureError(f"associativity fails at ({g},{h},{k})")
    for _, members in G.basis:
        if any(a < 0 or a >= n for a in members):
            raise StructureError("basis set out of range")
    return G


def make_groupoid(r, d, inv, comp, labels=None, basis=None) -> FiniteGroupoid:
    """Assemble and validate a groupoid; units are derived, basis defaults to discrete."""
    n = len(r)
    units = tuple(sorted({*r, *d}))
    if labels is None:
        labels = tuple(f"g{a}" for a in range(n))
    declared = basis is not None
    if basis is None:
        basis = discrete_basis(n, labels)
    G = FiniteGroupoid(n, tuple(r), tuple(d), tuple(inv), dict(comp), units,
                       tuple(labels), tuple(basis), declared)
    return validate_groupoid(G)


# ---------------------------------------------------------------------------
# isotropy and the basis-driven topology


def iso_bundle(G: FiniteGroupoid) -> frozenset[int]:
    return frozenset(a for a in G.arrows() if G.r[a] == G.d[a])


def interior_witnesses(G: FiniteGroupoid, subset: frozenset[int]
                       ) -> dict[int, str]:
    """Interior points of an arrow set, each with the first basis witness."""
    out: dict[int, str] = {}
    for label, members in G.basis:
        if members and members <= subset:
            for a in members:
                out.setdefault(a, label)
    return out


def interior(G: FiniteGroupoid, subset: frozenset[int]) -> frozenset[int]:
    return frozenset(interior_witnesses(G, subset))


def iso_interior(G: FiniteGroupoid) -> frozenset[int]:
    return interior(G, iso_bundle(G))


def is_open(G: FiniteGroupoid, subset: frozenset[int]) -> bool:
    return interior(G, subset) == subset


def is_closed(G: FiniteGroupoid, subset: frozenset[int]) -> bool:
    return is_open(G, frozenset(G.arrows()) - subset)


def is_group_bundle(G: FiniteGroupoid) -> bool:
    return all(G.r[a] == G.d[a] for a in G.arrows())


def is_essentially_principal(G: FiniteGroupoid) -> bool:
    return iso_interior(G) == frozenset(G.units)


def is_effective(G: FiniteGroupoid) -> bool:
    """No nonempty basic open set off the units consists of isotropy only."""
    units = frozenset(G.units)
    off_units = frozenset(G.arrows()) - units
    iso = iso_bundle(G)
    for _, members in G.basis:
        if members and members <= off_units and members <= iso:
            return False
    return True


def fiber_group(G: FiniteGroupoid, u: int) -> FiniteGroup:
    """The isotropy group at a unit, extracted as a one-unit groupoid."""
    if u not in G.units:
        raise StructureError(f"{u} is not a unit")
    arrows = frozenset(a for a in G.arrows() if G.r[a] == u and G.d[a] == u)
    sub, _ = extract_subgroupoid(G, arrows)
    if len(sub.units) != 1:
        raise StructureError("fiber extraction produced several units")
    return FiniteGroup(sub)


@dataclass(frozen=True)
class SubgroupoidProperties:
    is_subgroupoid: bool
    open: bool
    closed: bool
    wide: bool
    normal: bool


def is_subgroupoid(G: FiniteGroupoid, subset: frozenset[int]) -> bool:
    for a in subset:
        if G.inv[a] not in subset:
            return False
        for b in subset:
            if G.d[a] == G.r[b] and G.comp[(a, b)] not in subset:
                return False
    return True


def is_normal_in(G: FiniteGroupoid, subset: frozenset[int]) -> bool:
    """gamma^-1 . H . gamma stays inside H wherever the conjugation composes."""
    for g in G.arrows():
        gi = G.inv[g]
        for h in subset:
            if G.d[gi] == G.r[h] and G.d[h] == G.r[g]:
                if G.comp[(G.comp[(gi, h)], g)] not in subset:
                    return False
    return True


def subgroupoid_properties(G: FiniteGroupoid, subset: frozenset[int]
                           ) -> SubgroupoidProperties:
    return SubgroupoidProperties(
        is_subgroupoid=is_subgroupoid(G, subset),
        open=is_open(G, subset),
        closed=is_closed(G, subset),
        wide=frozenset(G.units) <= subset,
        normal=is_normal_in(G, subset),
    )


def extract_subgroupoid(G: FiniteGroupoid, subset: frozenset[int]
                        ) -> tuple[FiniteGroupoid, tuple[int, ...]]:
    """A standalone copy of an arrow subset, with the subspace basis.

    Returns the copy and the map from its arrow indices back to G's.
    """
    if not is_subgroupoid(G, subset):
        raise StructureError("arrow set is not a subgroupoid")
    order = tuple(sorted(subset))
    back = {a: i for i, a in enumerate(order)}
    r = tuple(back[G.r[a]] for a in order)
    d = tuple(back[G.d[a]] for a in order)
    inv = tuple(back[G.inv[a]] for a in order)
    comp = {(back[g], back[h]): back[gh]
            for (g, h), gh in G.comp.items() if g in subset and h in subset}
    labels = tuple(G.label(a) for a in order)
    basis = []
    seen = set()
    for label, members in G.basis:
        cut = frozenset(back[a] for a in members if a in subset)
        if cut and cut not in seen:
            basis.append((label + "|sub", cut))
            seen.add(cut)
    units = tuple(sorted(back[u] for u in G.units if u in subset))
    H = FiniteGroupoid(len(order), r, d, inv, comp, units, labels,
                       tuple(basis), G.basis_declared)
    return validate_groupoid(H), order


def group_as_groupoid(table, labels=None) -> FiniteGroupoid:
    """A group multiplication table as a one-unit groupoid."""
    n = len(table)
    identity = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            identity = e
            break
    if identity is None:
        raise StructureError("table has no identity")
    inv = []
    for a in range(n):
        bs = [b for b in range(n) if table[a][b] == identity]
        if len(bs) != 1:
            raise StructureError("table is not a group")
        inv.append(bs[0])
    r = tuple(identity for _ in range(n))
    d = r
    comp = {(a, b): table[a][b] for a in range(n) for b in range(n)}
    return make_groupoid(r, d, inv, comp, labels)


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The full equivalence relation on n points: arrows (i <- j)."""
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    r = tuple(idx[(i, i)] for i in range(n) for j in range(n))
    d = tuple(idx[(j, j)] for i in range(n) for j in range(n))
    inv = tuple(idx[(j, i)] for i in range(n) for j in range(n))
    comp = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comp[(idx[(i, j)], idx[(j, k)])] = idx[(i, k)]
    labels = tuple(f"({i}<-{j})" for i in range(n) for j in range(n))
    return make_groupoid(r, d, inv, comp, labels)


# ---------------------------------------------------------------------------
# semidirect products


@dataclass
class ConjugationAction:
    """Left action of G on a group bundle H, with the bundle map into G's units."""

    bundle: tuple[int, ...]               # H-arrow -> G-unit
    act: dict[tuple[int, int], int]       # (g, h) -> g.h, for bundle[h] == d(g)


def conjugation_action(ambient: FiniteGroupoid, h_arrows: frozenset[int],
                       g_arrows: frozenset[int]
                       ) -> tuple[FiniteGroupoid, FiniteGroupoid, ConjugationAction]:
    """Extract H and G from a common ambient groupoid; G acts by conjugation."""
    H, h_order = extract_subgroupoid(ambient, h_arrows)
    G, g_order = extract_subgroupoid(ambient, g_arrows)
    if not is_group_bundle(H):
        raise IncompatibleBundle("H is not a group bundle")
    h_back = {a: i for i, a in enumerate(h_order)}
    g_unit_back = {a: i for i, a in enumerate(g_order)}
    bundle = []
    for i, a in enumerate(h_order):
        amb_unit = ambient.r[a]
        if amb_unit not in g_unit_back:
            raise IncompatibleBundle("bundle point is not a unit of G")
        bundle.append(g_unit_back[amb_unit])
    act = {}
    for gi, g_amb in enumerate(g_order):
        for hi, h_amb in enumerate(h_order):
            if bundle[hi] == G.d[gi]:
                conj = ambient.comp[(ambient.comp[(g_amb, h_amb)], ambient.inv[g_amb])]
                if conj not in h_back:
                    raise IncompatibleBundle("conjugation leaves the bundle")
                act[(gi, hi)] = h_back[conj]
    return H, G, ConjugationAction(tuple(bundle), act)


def semidirect_product(H: FiniteGroupoid, G: FiniteGroupoid,
                       action: ConjugationAction) -> FiniteGroupoid:
    """Pairs (eta, gamma) with bundle(eta) = r(gamma), multiplied through the action."""
    if not is_group_bundle(H):
        raise IncompatibleBundle("H is not a group bundle")
    if sorted(action.bundle[u] for u in H.units) != sorted(G.units):
        raise IncompatibleBundle("bundle map does not match G's unit space")
    pairs = [(eta, g) for eta in H.arrows() for g in G.arrows()
             if action.bundle[eta] == G.r[g]]
    idx = {p: i for i, p in enumerate(pairs)}

    def unit_at(g_unit: int) -> tuple[int, int]:
        hs = [u for u in H.units if action.bundle[u] == g_unit]
        if len(hs) != 1:
            raise IncompatibleBundle("unit spaces do not correspond")
        return (hs[0], g_unit)

    r, d, inv, labels = [], [], [], []
    for eta, g in pairs:
        r.append(idx[unit_at(action.bundle[H.r[eta]])])
        d.append(idx[unit_at(G.d[g])])
        gi = G.inv[g]
        inv.append(idx[(action.act[(gi, H.inv[eta])], gi)])
        labels.append(f"({H.label(eta)};{G.label(g)})")
    comp = {}
    for i, (e1, g1) in enumerate(pairs):
        for j, (e2, g2) in enumerate(pairs):
            if G.d[g1] == action.bundle[e2]:
                comp[(i, j)] = idx[(H.comp[(e1, action.act[(g1, e2)])],
                                    G.comp[(g1, g2)])]
    out = make_groupoid(r, d, inv, comp, labels)
    out.pair_coords = tuple(pairs)  # arrow -> (H-arrow, G-arrow), for certificates
    return out


# ---------------------------------------------------------------------------
# homomorphisms and isomorphism search


def validate_hom(hom: GroupoidHom) -> GroupoidHom:
    S, T, m = hom.source, hom.target, hom.map
    if len(m) != S.n_arrows:
        raise StructureError("hom map has wrong length")
    for u in S.units:
        if m[u] not in T.units:
            raise StructureError(f"unit {u} does not map to a unit")
    for (g, h), gh in S.comp.items():
        if T.d[m[g]] != T.r[m[h]]:
            raise StructureError(f"hom breaks composability at ({g},{h})")
        if T.comp[(m[g], m[h])] != m[gh]:
            raise StructureError(f"hom is not multiplicative at ({g},{h})")
    return hom


def is_strongly_surjective(hom: GroupoidHom) -> bool:
    """Each source fiber maps onto the whole target fiber at the image unit."""
    S, T, m = hom.source, hom.target, hom.map
    for u in S.units:
        image = {m[a] for a in S.arrows() if S.d[a] == u}
        if image != set(T.d_fiber(m[u])):
            return False
    return True


def hom_kernel(hom: GroupoidHom) -> frozenset[int]:
    t_units = set(hom.target.units)
    return frozenset(a for a in hom.source.arrows() if hom.map[a] in t_units)


def groupoid_isomorphic(G1: FiniteGroupoid, G2: FiniteGroupoid
                        ) -> tuple[int, ...] | None:
    """Backtracking isomorphism search; None when no isomorphism exists."""
    if G1.n_arrows > ISO_SEARCH_CAP or G2.n_arrows > ISO_SEARCH_CAP:
        raise SearchBudgetExceeded(f"isomorphism search capped at {ISO_SEARCH_CAP} arrows")
    if G1.n_arrows != G2.n_arrows or len(G1.units) != len(G2.units):
        return None

    def unit_profile(G: FiniteGroupoid, u: int):
        iso_count = sum(1 for a in G.arrows() if G.r[a] == u and G.d[a] == u)
        return (len(G.d_fiber(u)), len(G.r_fiber(u)), iso_count)

    n = G1.n_arrows
    mapping: list[int | None] = [None] * n
    used = [False] * n

    def assign(a: int, b: int) -> list[int] | None:
        """Try mapping a -> b; returns newly assigned arrows or None."""
        stack = [(a, b)]
        newly = []
        while stack:
            x, y = stack.pop()
            if mapping[x] is not None:
                if mapping[x] != y:
                    for z in newly:
                        used[mapping[z]] = False
                        mapping[z] = None
                    return None
                continue
            if used[y]:
                for z in newly:
                    used[mapping[z]] = False
                    mapping[z] = None
                return None
            if (x in G1.units) != (y in G2.units):
                for z in newly:
                    used[mapping[z]] = False
                    mapping[z] = None
                return None
            mapping[x] = y
            used[y] = True
            newly.append(x)
            stack.append((G1.inv[x], G2.inv[y]))
            stack.append((G1.r[x], G2.r[y]))
            stack.append((G1.d[x], G2.d[y]))
            for z in range(n):
                if mapping[z] is None:
                    continue
                for (p, q) in ((x, z), (z, x)):
                    if G1.d[p] == G1.r[q]:
                        if G2.d[mapping[p]] != G2.r[mapping[q]]:
                            for w in newly:
                                used[mapping[w]] = False
                                mapping[w] = None
                            return None
                        stack.append((G1.comp[(p, q)],
                                      G2.comp[(mapping[p], mapping[q])]))
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
                for z in newly:
                    used[mapping[z]] = False
                    mapping[z] = None
        return False

    if search(0):
        result = tuple(mapping)  # type: ignore[arg-type]
        validate_hom(GroupoidHom(G1, G2, result))
        return result
    return None
