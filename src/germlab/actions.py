"""Inverse semigroup actions on finite sets and their groupoids of germs.

An action assigns each semigroup element a partial bijection of the space so
that composition is respected, the domain of each element equals the domain
of its idempotent s*s, and the idempotent domains cover the space.  The two
canonical actions move the filters of the idempotent semilattice around: the
universal one on all filters, the tight one restricted to ultrafilters.

Germs: pairs (s, x) with x in the domain of s, identified when the two
elements agree after restriction to an idempotent whose domain contains x.
The resulting arrows form a groupoid whose topology basis consists of the
sets Theta(s, U) = {germ(s, x) : x in U} for U in the declared basis of the
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CyclicGraph,
    DomainMismatch,
    NotCovering,
    NotHomomorphism,
    NotSubsemigroup,
    StructureError,
)
from .groupoids import FiniteGroupoid, validate_groupoid
from .semigroups import InverseSemigroup, centralizer, validate_inverse_semigroup
from .semilattices import (
    Semilattice,
    all_filters,
    filter_generator,
    semilattice_of,
    spectrum_basis,
    tight_spectrum,
)


@dataclass(frozen=True)
class PartialMap:
    """An injective partial self-map, stored as per-point images (None = undefined)."""

    images: tuple[int | None, ...]

    @cached_property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, y in enumerate(self.images) if y is not None)

    @cached_property
    def image(self) -> frozenset[int]:
        return frozenset(y for y in self.images if y is not None)

    def __call__(self, x: int) -> int:
        y = self.images[x]
        if y is None:
            raise StructureError(f"{x} outside domain")
        return y

    def injective(self) -> bool:
        vals = [y for y in self.images if y is not None]
        return len(vals) == len(set(vals))

    def after(self, other: "PartialMap") -> "PartialMap":
        """self composed after other, on the largest domain that makes sense."""
        out: list[int | None] = []
        for x in range(len(self.images)):
            y = other.images[x] if x < len(other.images) else None
            out.append(self.images[y] if y is not None else None)
        return PartialMap(tuple(out))

    def inverse(self) -> "PartialMap":
        out: list[int | None] = [None] * len(self.images)
        for x, y in enumerate(self.images):
            if y is not None:
                out[y] = x
        return PartialMap(tuple(out))

    def is_identity_on_domain(self) -> bool:
        return all(y is None or y == x for x, y in enumerate(self.images))

    @staticmethod
    def identity_on(points, size: int) -> "PartialMap":
        return PartialMap(tuple(x if x in points else None for x in range(size)))


@dataclass
class Action:
    """A validated action: maps[s] is the partial bijection of element s."""

    semigroup: InverseSemigroup
    space_size: int
    maps: tuple[PartialMap, ...]
    point_labels: tuple[str, ...]
    space_basis: tuple[tuple[str, frozenset[int]], ...] | None = None

    def domain_of(self, s: int) -> frozenset[int]:
        return self.maps[s].domain


def validate_action(S: InverseSemigroup, space_size: int, maps,
                    point_labels=None, space_basis=None) -> Action:
    """Check the homomorphism, domain, and covering conditions exhaustively."""
    maps = tuple(maps)
    if len(maps) != S.size:
        raise StructureError("one partial map per element required")
    for s, m in enumerate(maps):
        if len(m.images) != space_size:
            raise StructureError(f"map of element {s} has wrong length")
        if any(y is not None and not 0 <= y < space_size for y in m.images):
            raise StructureError(f"map of element {s} leaves the space")
        if not m.injective():
            raise NotHomomorphism(s, s)
    for s in S.elements():
        dom_idem = maps[S.mul(S.inv[s], s)].domain
        if maps[s].domain != dom_idem:
            raise DomainMismatch(s)
    # images as an (n, points + 1) array; -1 is undefined and column `points`
    # is an always-undefined sentinel, so M[s][M[t]] composes s after t
    M = np.full((len(maps), space_size + 1), -1, dtype=np.intp)
    for s, m in enumerate(maps):
        M[s, :space_size] = [-1 if y is None else y for y in m.images]
    for s in S.elements():
        bad = (M[s][M[:, :space_size]] != M[S.table[s], :space_size]).any(axis=1)
        if bad.any():
            raise NotHomomorphism(s, int(np.argmax(bad)))
    covered = set()
    for e in S.idempotent_set:
        covered |= maps[e].domain
    if covered != set(range(space_size)):
        raise NotCovering()
    if point_labels is None:
        point_labels = tuple(f"x{p}" for p in range(space_size))
    return Action(S, space_size, maps, tuple(point_labels), space_basis)


def _filter_label(E: Semilattice, F: frozenset[int]) -> str:
    return f"up({E.label(filter_generator(E, F))})"


def _spectrum_action(S: InverseSemigroup, filters: list[frozenset[int]],
                     E: Semilattice | None = None) -> Action:
    """Filters move by s.F = upward closure of {s e s* : e in F}.

    The filter list's order is preserved, so callers may align point indices
    across related semigroups.
    """
    if E is None:
        E = semilattice_of(S)
    to_sl = {e: i for i, e in enumerate(E.parent_index)}
    point_of = {F: i for i, F in enumerate(filters)}
    maps = []
    for s in S.elements():
        ss = S.mul(S.inv[s], s)
        images: list[int | None] = [None] * len(filters)
        for i, F in enumerate(filters):
            if to_sl[ss] not in F:
                continue
            moved = set()
            for e_sl in F:
                c = S.mul(S.mul(s, E.parent_index[e_sl]), S.inv[s])
                moved.update(f for f in range(E.size) if E.leq(to_sl[c], f))
            target = frozenset(moved)
            if target not in point_of:
                raise StructureError("action image is not a filter of the spectrum")
            images[i] = point_of[target]
        maps.append(PartialMap(tuple(images)))
    labels = tuple(_filter_label(E, F) for F in filters)
    basis = tuple(spectrum_basis(E, filters))
    return validate_action(S, len(filters), maps, labels, basis)


def universal_action(S: InverseSemigroup) -> Action:
    """The action on every filter of the idempotent semilattice."""
    return _spectrum_action(S, all_filters(semilattice_of(S)))


def tight_action(S: InverseSemigroup) -> Action:
    """Restriction of the universal action to the (ultra)filter spectrum."""
    E = semilattice_of(S)
    ultra = tight_spectrum(E)
    ultra_set = set(ultra)
    full = universal_action(S)
    all_f = all_filters(E)
    keep = [i for i, F in enumerate(all_f) if F in ultra_set]
    reindex = {old: new for new, old in enumerate(keep)}
    maps = []
    for s in S.elements():
        images: list[int | None] = [None] * len(keep)
        for new, old in enumerate(keep):
            y = full.maps[s].images[old]
            if y is not None:
                if y not in reindex:
                    raise StructureError("tight spectrum is not invariant")
                images[new] = reindex[y]
        maps.append(PartialMap(tuple(images)))
    labels = tuple(full.point_labels[old] for old in keep)
    kept_filters = [all_f[old] for old in keep]
    basis = tuple(spectrum_basis(E, kept_filters))
    return validate_action(S, len(keep), maps, labels, basis)


def action_kernel(action: Action) -> frozenset[int]:
    """Products s.t* over pairs acted on identically; cross-checked and normal."""
    S = action.semigroup
    by_map: dict[tuple, list[int]] = {}
    for s in S.elements():
        by_map.setdefault(action.maps[s].images, []).append(s)
    members = set()
    for block in by_map.values():
        for s in block:
            for t in block:
                members.add(S.mul(s, S.inv[t]))
    kernel = frozenset(members)
    identity_like = frozenset(s for s in S.elements()
                              if action.maps[s].is_identity_on_domain())
    if kernel != identity_like:
        raise StructureError("kernel cross-check failed")
    from .semigroups import is_normal_subsemigroup

    if not is_normal_subsemigroup(S, kernel):
        raise StructureError("action kernel is not a normal subsemigroup")
    return kernel


def domains_form_base(action: Action) -> bool:
    """Finite-discrete reading: every singleton must be some idempotent's domain."""
    domains = {action.maps[e].domain for e in action.semigroup.idempotent_set}
    return all(frozenset({x}) in domains for x in range(action.space_size))


@dataclass
class GermGroupoid:
    """The groupoid of germs of an action, with lookups back to (element, point)."""

    action: Action
    groupoid: FiniteGroupoid
    unit_at_point: tuple[int, ...]
    point_of_unit: dict[int, int]
    arrow_of: dict[tuple[int, int], int]      # (element, point) -> arrow
    rep_of: tuple[tuple[int, int], ...]       # arrow -> canonical (element, point)
    base_idempotent: tuple[int, ...]          # point -> least idempotent acting there

    def germ(self, s: int, x: int) -> int:
        return self.arrow_of[(s, x)]

    def principal_point(self, e: int) -> int:
        """The point whose least acting idempotent is e (its principal filter)."""
        for x, m in enumerate(self.base_idempotent):
            if m == e:
                return x
        raise StructureError(f"no point is generated by idempotent {e}")


def _min_idempotent_at(action: Action, x: int) -> int:
    S = action.semigroup
    m = None
    for e in sorted(S.idempotent_set):
        if x in action.maps[e].domain:
            m = e if m is None else S.mul(m, e)
    if m is None:
        raise NotCovering()
    return m


def germ_groupoid(action: Action) -> GermGroupoid:
    """Build the groupoid of germs with its Theta(s, U) basis catalog.

    Two pairs (s, x), (t, x) give the same germ exactly when s e = t e for an
    idempotent e acting around x; since the idempotents around x are closed
    under meets, the product with the least of them is a complete invariant
    and doubles as the canonical representative.
    """
    S = action.semigroup
    n_pts = action.space_size
    min_idem = [_min_idempotent_at(action, x) for x in range(n_pts)]

    arrow_of: dict[tuple[int, int], int] = {}
    reps: list[tuple[int, int]] = []
    key_to_arrow: dict[tuple[int, int], int] = {}
    for x in range(n_pts):
        for s in S.elements():
            if x not in action.maps[s].domain:
                continue
            key = (x, S.mul(s, min_idem[x]))
            if key not in key_to_arrow:
                key_to_arrow[key] = len(reps)
                reps.append((s, x))
            arrow_of[(s, x)] = key_to_arrow[key]

    n_arrows = len(reps)
    unit_at_point = tuple(arrow_of[(min_idem[x], x)] for x in range(n_pts))
    point_of_unit = {u: x for x, u in enumerate(unit_at_point)}

    r, d, inv = [], [], []
    for s, x in reps:
        r.append(unit_at_point[action.maps[s](x)])
        d.append(unit_at_point[x])
        inv.append(arrow_of[(S.inv[s], action.maps[s](x))])
    comp = {}
    for j, (s, x) in enumerate(reps):
        y = action.maps[s](x)
        for i, (t, _) in enumerate(reps):
            if d[i] == unit_at_point[y]:
                comp[(i, j)] = arrow_of[(S.mul(t, s), x)]

    labels = tuple(f"[{S.label(s)}|{action.point_labels[x]}]" for s, x in reps)

    if action.space_basis is not None:
        unit_catalog = list(action.space_basis)
        declared = True
    else:
        unit_catalog = [(f"D[{S.label(e)}]", action.maps[e].domain)
                        for e in sorted(S.idempotent_set) if action.maps[e].domain]
        unit_catalog += [(f"{{{action.point_labels[x]}}}", frozenset({x}))
                         for x in range(n_pts)]
        declared = False

    basis: list[tuple[str, frozenset[int]]] = []
    seen: set[frozenset[int]] = set()
    for s in S.elements():
        dom = action.maps[s].domain
        for u_label, u_members in unit_catalog:
            cut = u_members & dom
            if not cut:
                continue
            theta = frozenset(arrow_of[(s, x)] for x in cut)
            if theta not in seen:
                seen.add(theta)
                basis.append((f"Theta({S.label(s)},{u_label})", theta))

    G = FiniteGroupoid(n_arrows, tuple(r), tuple(d), tuple(inv), comp,
                       tuple(sorted(set(unit_at_point))), labels,
                       tuple(basis), declared)
    validate_groupoid(G)
    return GermGroupoid(action, G, unit_at_point, point_of_unit, arrow_of,
                        tuple(reps), tuple(min_idem))


def germ_equivalence_is_equivalence(action: Action) -> bool:
    """Certify that germ identification is an equivalence on each fiber.

    At a point x, (s, x) ~ (t, x) iff se = te for some idempotent e in E_x,
    the idempotents acting at x.  The certificate, per point: the table meet
    m_x of E_x lies in E_x, and for every e in E_x, se = te implies
    s m_x = t m_x on the elements acting at x.  The first makes the kernel of
    s -> s m_x part of ~, the second puts ~ inside that kernel, so ~ is the
    kernel of a function and hence an equivalence.  A kernel inclusion holds
    exactly when the pairs (se, s m_x) are no more numerous than the values
    se, so one count of distinct pairs checks every e at once.  Cost
    O(points |E| n log n) on the table, where testing the three axioms pair
    by pair costs O(points n^3 |E|).
    """
    S = action.semigroup
    T = S.table
    n = S.size
    idems = np.array(sorted(S.idempotent_set))
    domain = np.array([[y is not None for y in m.images] for m in action.maps],
                      dtype=bool)
    for x in range(action.space_size):
        acting = np.flatnonzero(domain[:, x])
        around = idems[domain[idems, x]]
        if around.size == 0:
            if acting.size:
                return False      # no idempotent relates (s, x) to itself
            continue
        m = around[0]
        for e in around[1:]:
            m = T[m, e]
        if not domain[m, x]:
            return False
        by_e = T[np.ix_(acting, around)] + n * np.arange(around.size)
        with_meet = by_e * n + T[acting, m][:, None]
        if np.unique(with_meet).size != np.unique(by_e).size:
            return False
    return True


@dataclass
class EmbeddedSubgroupoid:
    """An arrow subset of a parent groupoid together with a standalone copy."""

    parent: FiniteGroupoid
    arrows: frozenset[int]
    groupoid: FiniteGroupoid
    to_parent: tuple[int, ...]
    # (first failing bundle hypothesis or None, closed), set by the algebra on first use
    hypotheses: tuple[str | None, bool] | None = field(
        default=None, init=False, repr=False, compare=False)

    @cached_property
    def from_parent(self) -> dict[int, int]:
        return {a: i for i, a in enumerate(self.to_parent)}


def induced_subgroupoid(germs: GermGroupoid, subset: frozenset[int]
                        ) -> EmbeddedSubgroupoid:
    """Germs with a representative in a subsemigroup containing the idempotents."""
    S = germs.action.semigroup
    if not S.idempotent_set <= subset:
        raise NotSubsemigroup("subset must contain every idempotent")
    for a in subset:
        if S.inv[a] not in subset:
            raise NotSubsemigroup("subset must be closed under inverses")
        for b in subset:
            if S.mul(a, b) not in subset:
                raise NotSubsemigroup("subset must be closed under products")
    chosen = frozenset(a for (s, x), a in germs.arrow_of.items() if s in subset)
    from .groupoids import extract_subgroupoid

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


@dataclass(frozen=True)
class _Path:
    """Edge sequence composed right-to-left: entry i+1 feeds entry i."""

    rng: int    # head vertex of the whole path
    src: int    # tail vertex
    edges: tuple[int, ...]

    def extends(self, other: "_Path") -> bool:
        return (self.rng == other.rng
                and self.edges[:len(other.edges)] == other.edges)

    def remainder_after(self, prefix: "_Path") -> "_Path":
        rest = self.edges[len(prefix.edges):]
        return _Path(prefix.src, self.src, rest)

    def then(self, other: "_Path") -> "_Path":
        # self followed (on the source side) by other: src(self) == rng(other)
        return _Path(self.rng, other.src, self.edges + other.edges)


def _all_paths(graph: DirectedGraph) -> list[_Path]:
    paths = [_Path(v, v, ()) for v in range(graph.n_vertices)]
    frontier = list(paths)
    while frontier:
        new = []
        for p in frontier:
            for i, (tail, head) in enumerate(graph.edges):
                if head == p.src:
                    new.append(_Path(p.rng, tail, p.edges + (i,)))
        paths.extend(new)
        frontier = new
    return paths


def _is_acyclic(graph: DirectedGraph) -> bool:
    color = [0] * graph.n_vertices
    adj = [[] for _ in range(graph.n_vertices)]
    for t, h in graph.edges:
        adj[t].append(h)

    def visit(v: int) -> bool:
        color[v] = 1
        for w in adj[v]:
            if color[w] == 1:
                return False
            if color[w] == 0 and not visit(w):
                return False
        color[v] = 2
        return True

    return all(color[v] != 0 or visit(v) for v in range(graph.n_vertices))


def _path_label(graph: DirectedGraph, p: _Path) -> str:
    if not p.edges:
        return f"v{p.rng}"
    return "".join(f"e{i}" for i in p.edges)


def graph_inverse_semigroup(graph: DirectedGraph) -> InverseSemigroup:
    """Zero plus the pairs x.y* over paths x, y with a common source.

    The graph must be acyclic so the path set is finite.  Products compare
    the middle paths: one must extend the other, otherwise the product is
    zero.  The idempotent semilattice is checked to be unambiguous at zero
    (nonzero meets only between comparable idempotents).
    """
    if not _is_acyclic(graph):
        raise CyclicGraph("graph inverse semigroup needs an acyclic graph")
    paths = _all_paths(graph)
    elements: list[tuple[_Path, _Path] | None] = [None]   # index 0 is the zero
    for x in paths:
        for y in paths:
            if x.src == y.src:
                elements.append((x, y))
    index = {(x.rng, x.edges, y.rng, y.edges): i
             for i, pair in enumerate(elements) if pair is not None
             for x, y in [pair]}

    def mul(a, b):
        if a is None or b is None:
            return 0
        x, y = a
        u, v = b
        if u.extends(y):
            z = u.remainder_after(y)
            return index[((xz := x.then(z)).rng, xz.edges, v.rng, v.edges)]
        if y.extends(u):
            z = y.remainder_after(u)
            return index[(x.rng, x.edges, (vz := v.then(z)).rng, vz.edges)]
        return 0

    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = mul(a, b)
    labels = ["0"]
    for pair in elements[1:]:
        x, y = pair  # type: ignore[misc]
        lx, ly = _path_label(graph, x), _path_label(graph, y)
        labels.append(lx if x == y else f"{lx}.{ly}*")
    S = validate_inverse_semigroup(table, labels)

    idems = sorted(S.idempotent_set)
    for e in idems:
        for f in idems:
            p = S.mul(e, f)
            if p != S.zero and not (S.leq[e, f] or S.leq[f, e]):
                raise StructureError("idempotent semilattice is ambiguous at zero")
    return S
