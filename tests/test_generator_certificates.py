"""Generator certificates and the universal pipeline's array passes against
the loops they replaced.

Each ``reference_*`` function is a replaced per-element loop, kept as the
oracle: the n^3 associativity loop, the row-by-row homomorphism scan of
``validate_action``, the one-pair-at-a-time union-find behind congruence
saturation, sigma and the D-class count, the filter-set form of
``spectrum_basis``, the restriction of the universal action to the maximal
filters that ``tight_action`` replaced, the Theta catalog and least
acting idempotents of ``germ_groupoid``, the frozenset loops of the
topology predicates, the block products of
``action_kernel``, the closure loops of ``induced_subgroupoid`` and the
product loop of ``semilattice_of``.  The subjects are those of
``test_order_congruence_tables``: the corpus, ``symmetric:4``,
``group:z70``, ``symmetric:3 x group:z2`` and ``graph7``.  The references
keep their sets as frozensets; ``mask`` turns one into the boolean mask
that the library takes.
"""

import dataclasses
import random
import zlib
from collections import Counter

import numpy as np
import pytest

from germlab import actions, congruences, groupoids, semigroups
from germlab.actions import (
    Action,
    _least_acting_idempotents,
    action_kernel,
    centralizer_germs,
    germ_equivalence_is_equivalence,
    germ_groupoid,
    induced_subgroupoid,
    tight_action,
    universal_action,
    validate_action,
)
from germlab.builtins import builtin
from germlab.cli import _d_classes
from germlab.congruences import (
    Relation,
    random_idempotent_separating_congruences,
    sigma_relation,
)
from germlab.errors import (
    DomainMismatch,
    NotAssociative,
    NotCovering,
    NotHomomorphism,
    NotSubsemigroup,
    StructureError,
)
from germlab.groupoids import (
    Cuts,
    FiniteGroupoid,
    interior,
    interior_witnesses,
    is_closed,
    is_effective,
    is_open,
    iso_bundle,
    validate_groupoid,
)
from germlab.semigroups import CHUNK_ENTRIES, check_associativity, generating_set
from germlab.semilattices import (
    Semilattice,
    all_filters,
    compose_after,
    partial_bijection_semigroup,
    principal_filter,
    semilattice_of,
    spectrum_basis,
    spectrum_points,
    ultrafilters,
    validate_semilattice,
)
from germlab.suites import run_suite

from test_actions import cut_catalog, labeled_sets
from test_congruences import generated_congruence
from test_groupoids import (
    LOOP_GROUPOID,
    NO_CUTS,
    PAIR2,
    _reference_axioms,
    _single_entry_corruptions,
)
from test_order_congruence_tables import GRAPH7, LADDER, SUBJECTS, subject, subsets
from test_semigroups import table_from_maps


# ---------------------------------------------------------------------------
# the replaced loops


def reference_generating_set(S):
    """Greedy over decreasing |sS|, ties by index, closing by Python sets."""
    spread = [len(set(row)) for row in S.table.tolist()]
    inside: set[int] = set()
    gens = []
    for c in sorted(S.elements(), key=lambda s: (-spread[s], s)):
        if c in inside:
            continue
        gens.append(c)
        frontier = {c}
        while frontier:
            inside |= frontier
            frontier = {S.mul(a, b) for a in inside for b in inside} - inside
    return gens


def reference_associativity(table):
    """The n^3 loop: the first failing triple (i, j, k) row-major, or None."""
    n = table.shape[0]
    for i in range(n):
        left = table[table[i, :], :]
        right = table[i, table]
        if not (left == right).all():
            j, k = np.argwhere(left != right)[0]
            return (i, int(j), int(k))
    return None


def reference_validate_action(S, space_size, maps):
    """validate_action with the homomorphism law scanned row by row."""
    maps = np.asarray(maps, dtype=np.intp)
    outside = ((maps < -1) | (maps >= space_size)).any(axis=1)
    ranked = np.sort(maps, axis=1)
    repeated = ((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] >= 0)).any(axis=1)
    s = int(np.argmax(outside | repeated))
    if outside[s]:
        raise StructureError(f"map of element {s} leaves the space")
    if repeated[s]:
        raise NotHomomorphism(s, s)
    domain = maps >= 0
    wrong = (domain != domain[S.table[S.inv, np.arange(S.size)]]).any(axis=1)
    if wrong.any():
        raise DomainMismatch(int(np.argmax(wrong)))
    for s in S.elements():
        bad = (compose_after(maps[s], maps) != maps[S.table[s]]).any(axis=1)
        if bad.any():
            raise NotHomomorphism(s, int(np.argmax(bad)))
    if not domain[sorted(S.idempotent_set)].any(axis=0).all():
        raise NotCovering()


class ReferenceUnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def roots(self):
        return [self.find(x) for x in range(len(self.parent))]


def reference_saturate(S, pairs):
    """Rounds over every non-root x, merging pair by pair."""
    n, T = S.size, S.table
    sets = ReferenceUnionFind(n)
    for a, b in pairs:
        sets.union(a, b)
    while True:
        root = np.array([sets.find(x) for x in range(n)])
        x = np.flatnonzero(root != np.arange(n))
        merged = False
        for via_x, via_root in ((root[T[:, x]], root[T[:, root[x]]]),
                                (root[T[x]], root[T[root[x]]])):
            apart = via_root != via_x
            for a, b in zip(via_root[apart].tolist(), via_x[apart].tolist()):
                if sets.find(a) != sets.find(b):
                    sets.union(a, b)
                    merged = True
        if not merged:
            return Relation(sets.roots())


def reference_sigma(S):
    sets = ReferenceUnionFind(S.size)
    for e in sorted(S.idempotent_set):
        first = {}
        for s in S.elements():
            sets.union(first.setdefault(S.mul(s, e), s), s)
    return Relation(sets.roots())


def reference_d_classes(S):
    sets = ReferenceUnionFind(S.size)
    first = {}
    for s in S.elements():
        for key in (("L", S.mul(S.inv[s], s)), ("R", S.mul(s, S.inv[s]))):
            sets.union(first.setdefault(key, s), s)
    return len(set(sets.roots()))


def reference_semilattice_meet(S):
    idems = sorted(S.idempotent_set)
    back = {e: i for i, e in enumerate(idems)}
    return np.array([[back[S.mul(e, f)] for f in idems] for e in idems])


def reference_principal_filter(E, e):
    return frozenset(f for f in range(E.size) if E.leq(e, f))


def reference_generator(E, F):
    """The least member of a finite filter: the meet of its members."""
    g = None
    for e in F:
        g = e if g is None else E.wedge(g, e)
    assert g in F
    return g


def reference_spectrum_basis(E, filters):
    """N^e for each nonzero e, then the isolating set of each filter F (its
    generator, excluding the maximal elements outside F), each kept if
    nonempty and new; members by testing every filter."""
    def render(include, exclude):
        base = f"N^{E.label(include)}"
        return base + "_{" + ",".join(E.label(f) for f in exclude) + "}" if exclude else base

    sets = [(e, ()) for e in range(E.size) if e != E.zero]
    for F in filters:
        outside = [f for f in range(E.size) if f not in F]
        sets.append((reference_generator(E, F),
                     tuple(sorted(f for f in outside
                                  if not any(g != f and E.leq(f, g) for g in outside)))))
    catalog, seen = [], set()
    for include, exclude in sets:
        members = frozenset(i for i, F in enumerate(filters)
                            if include in F and not any(f in F for f in exclude))
        if members and members not in seen:
            catalog.append((render(include, exclude), members))
            seen.add(members)
    return catalog


def reference_min_idempotents(action):
    S, rows = action.semigroup, action.maps.tolist()
    out = []
    for x in range(action.space_size):
        m = None
        for e in sorted(S.idempotent_set):
            if rows[e][x] >= 0:
                m = e if m is None else S.mul(m, e)
        if m is None:
            raise NotCovering()
        out.append(m)
    return tuple(out)


def reference_tight_restriction(universal, E, points):
    """The universal action on the given points, restricted to those whose
    principal filter is maximal among theirs by pairwise inclusion and
    renumbered in order: (maps, point labels, filter-loop basis)."""
    filters = [reference_principal_filter(E, g) for g in points.tolist()]
    keep = [i for i, F in enumerate(filters) if not any(F < G for G in filters)]
    new = {old: i for i, old in enumerate(keep)}
    maps = [[new[y] if y >= 0 else -1 for y in row] for row in universal.maps[:, keep].tolist()]
    return (maps, tuple(universal.point_labels[i] for i in keep),
            tuple(reference_spectrum_basis(E, [filters[i] for i in keep])))


def reference_theta_catalog(germs):
    action, S = germs.action, germs.action.semigroup
    domains = [frozenset(x for x, y in enumerate(row) if y >= 0) for row in action.maps.tolist()]
    if action.space_basis is not None:
        unit_catalog = labeled_sets(*action.space_basis)
    else:
        unit_catalog = [(f"D[{S.label(e)}]", domains[e])
                        for e in sorted(S.idempotent_set) if domains[e]]
        unit_catalog += [(f"{{{action.point_labels[x]}}}", frozenset({x}))
                         for x in range(action.space_size)]
    rows = germs.germ_at.tolist()
    basis, seen = [], set()
    for s in S.elements():
        for u_label, u_members in unit_catalog:
            cut = u_members & domains[s]
            if not cut:
                continue
            theta = frozenset(rows[s][x] for x in cut)
            if theta not in seen:
                seen.add(theta)
                basis.append((f"Theta({S.label(s)},{u_label})", theta))
    return tuple(basis)


def reference_action_kernel(action):
    S = action.semigroup
    by_map = {}
    for s, row in enumerate(action.maps.tolist()):
        by_map.setdefault(tuple(row), []).append(s)
    return frozenset(S.mul(s, S.inv[t]) for block in by_map.values()
                     for s in block for t in block)


def mask(size, members):
    """A set of indices as a boolean mask of the given length."""
    out = np.zeros(size, dtype=bool)
    out[list(members)] = True
    return out


def reference_closure_defect(S, subset):
    if not S.idempotent_set <= subset:
        return "subset must contain every idempotent"
    for a in sorted(subset):
        if S.inv[a] not in subset:
            return "subset must be closed under inverses"
        for b in subset:
            if S.mul(a, b) not in subset:
                return "subset must be closed under products"
    return None


def outcome(fn, *args):
    """The exception a call raises, as (type, message), or None."""
    try:
        fn(*args)
    except StructureError as exc:
        return type(exc), str(exc)
    return None


def corrupted_tables(table, rng, count):
    """Copies of a table with one entry replaced by another element."""
    n = table.shape[0]
    for _ in range(count if n > 1 else 0):
        broken = table.copy()
        i, j = rng.integers(n, size=2)
        broken[i, j] = (broken[i, j] + rng.integers(1, n)) % n
        yield broken


def corrupted_maps(maps, rng, count):
    """Copies of action rows with one entry replaced: mostly by another point
    of the space, sometimes by -1 or, where it was undefined, by a point."""
    n, p = maps.shape
    for _ in range(count):
        broken = maps.copy()
        s, x = rng.integers(n), rng.integers(p)
        broken[s, x] = -1 + (broken[s, x] + 1 + rng.integers(1, p + 1)) % (p + 1)
        yield broken


# ---------------------------------------------------------------------------
# generating sets and Light's associativity test


@pytest.mark.parametrize("name", SUBJECTS)
def test_generating_set_is_the_greedy_closure(name):
    S = subject(name)
    assert generating_set(S.table).tolist() == reference_generating_set(S)
    assert S.generators.tolist() == reference_generating_set(S)


def test_ladder_generating_sets_are_small():
    sizes = {name: subject(name).generators.size for name in LADDER}
    assert sizes == {"symmetric:4": 5, "group:z70": 2, "symmetric:3 x group:z2": 5,
                     "graph7": 27}


def test_validated_tables_keep_the_generating_set_of_their_check():
    S = semigroups.validate_inverse_semigroup(subject("graph7").table)
    assert "generators" in vars(S)
    assert S.generators.tolist() == reference_generating_set(subject("graph7"))


def generator_witness(table):
    """The loop over the generating set in its order: the first (x, a, y),
    for the first generator a with a failing pair and its first such pair
    (x, y) row-major, with (x a) y != x (a y); None if there is none."""
    for a in generating_set(table).tolist():
        for x in range(table.shape[0]):
            left = table[table[x, a], :]           # (x a) y over y
            right = table[x, table[a, :]]          # x (a y) over y
            if not (left == right).all():
                return (x, a, int(np.argmax(left != right)))
    return None


@pytest.mark.parametrize("chunk", [1, 1 << 16])
@pytest.mark.parametrize("name", SUBJECTS)
def test_light_test_matches_the_loop_on_corruptions(monkeypatch, name, chunk):
    """Same verdict as the n^3 loop on single-entry corruptions, and the
    witness of the loop over the corrupted table's own generating set, one
    generator per chunk or many."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", chunk)
    table = subject(name).table
    assert reference_associativity(table) is None
    assert check_associativity(table).tolist() == generating_set(table).tolist()
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    verdicts = []
    for broken in corrupted_tables(table, rng, 4 if table.shape[0] > 100 else 12):
        verdicts.append(reference_associativity(broken))
        if verdicts[-1] is None:
            check_associativity(broken)
            continue
        with pytest.raises(NotAssociative) as raised:
            check_associativity(broken)
        assert raised.value.triple == generator_witness(broken)
        x, a, y = raised.value.triple
        assert broken[broken[x, a], y] != broken[x, broken[a, y]]
    assert table.shape[0] < 3 or any(v is not None for v in verdicts)


def chain(n):
    return np.minimum.outer(np.arange(n), np.arange(n))


def test_associativity_budget_counts_the_compared_pairs(monkeypatch):
    """Light's test compares n pairs (x, y) for each generator a and row x
    with xa not the zero.  A chain needs every element as a generator, and
    its zero settles row 0 and generator 0, so the n-chain compares
    n (n-1)^2 pairs: the 512-chain validates and the 1025-chain, one past
    the 1024-chain's 1024 * 1023^2 <= 2^30, is refused, named by n, the
    generator count and its pairs.  With the budget set to the 8-chain's
    392, the 8-chain validates and the 9-chain is refused."""
    for n in (8, 512):
        S = semigroups.validate_inverse_semigroup(chain(n))
        assert S.generators.size == n
    with pytest.raises(StructureError) as refused:
        semigroups.validate_inverse_semigroup(chain(1025))
    assert str(refused.value) == ("table too large to validate (n=1025 with |A|=1025 "
                                  "generators: 1074790400 pairs > 1073741824)")
    monkeypatch.setattr(semigroups, "LIGHT_BUDGET", 8 * 7 ** 2)
    semigroups.validate_inverse_semigroup(chain(8))
    with pytest.raises(StructureError) as refused:
        semigroups.validate_inverse_semigroup(chain(9))
    assert str(refused.value) == ("table too large to validate "
                                  "(n=9 with |A|=9 generators: 576 pairs > 392)")


def test_zero_rows_are_settled_without_comparison(monkeypatch):
    """600 orthogonal idempotents and a zero (the graph semigroup of 600
    isolated vertices) need all 600 as generators, |A| n^2 = 600 * 601^2
    products in full, but v is the only row x with x v not the zero, so
    the test compares 601 * 600 pairs and fits a budget of exactly that."""
    n = 601
    table = np.where(np.eye(n, dtype=bool), np.arange(n)[:, None], 0)
    monkeypatch.setattr(semigroups, "LIGHT_BUDGET", n * (n - 1))
    assert check_associativity(table).tolist() == list(range(1, n))
    monkeypatch.setattr(semigroups, "LIGHT_BUDGET", n * (n - 1) - 1)
    with pytest.raises(StructureError, match="360600 pairs > 360599"):
        check_associativity(table)


def test_tables_past_2_to_the_15_elements_are_refused_before_any_work(monkeypatch):
    """Past 2^15 elements, whose indices an int16 copy cannot hold, a table
    is refused from its shape alone, before the generating set is searched
    or the copy made: the table of 2^15 + 1 zeros here is a broadcast view
    that holds one entry."""
    def never(table):
        raise AssertionError("generating_set called")

    monkeypatch.setattr(semigroups, "generating_set", never)
    n = (1 << 15) + 1
    table = np.broadcast_to(np.int64(0), (n, n))
    with pytest.raises(StructureError) as refused:
        check_associativity(table)
    assert str(refused.value) == "table too large to validate (n=32769 > 32768)"


# ---------------------------------------------------------------------------
# the action certificate


def _actions(name):
    S = subject(name)
    return [universal_action(S), tight_action(S)]


@pytest.mark.parametrize("name", SUBJECTS)
def test_action_certificate_matches_the_scan_on_corruptions(name):
    for seed, action in enumerate(_actions(name)):
        S, p = action.semigroup, action.space_size
        assert reference_validate_action(S, p, action.maps) is None
        rng = np.random.default_rng(zlib.crc32(f"{name}/{seed}".encode()))
        for broken in corrupted_maps(action.maps, rng, 8):
            assert (outcome(validate_action, S, p, broken)
                    == outcome(reference_validate_action, S, p, broken))


def test_action_corruptions_reach_the_homomorphism_scan():
    """The comparison above is not vacuous: on the ladder subjects some
    corruptions pass the domain checks and fail the law, some at a pair
    whose first element is not a generator."""
    seen = Counter()
    for name in LADDER:
        for seed, action in enumerate(_actions(name)):
            S, p = action.semigroup, action.space_size
            rng = np.random.default_rng(zlib.crc32(f"{name}/{seed}".encode()))
            for broken in corrupted_maps(action.maps, rng, 8):
                try:
                    validate_action(S, p, broken)
                except NotHomomorphism as exc:
                    s, t = exc.pair
                    seen["law" if s != t else "repeat"] += 1
                    seen["non-generator"] += s not in S.generators.tolist()
                except StructureError:
                    seen["other"] += 1
    assert seen["law"] and seen["non-generator"] and seen["other"]


@pytest.mark.parametrize("name, sparse", [("graph7", True), ("symmetric:4", False)])
def test_action_certificate_checks_generators_in_chunks(monkeypatch, name, sparse):
    """One generator per chunk gives the same verdicts, on the domain pairs
    of graph7's universal action (5% defined) and on the whole rows of
    symmetric:4's (40% defined)."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 1)
    calls = Counter()
    law_on_domains = actions._law_on_domains

    def counted(*args):
        calls["domains"] += 1
        return law_on_domains(*args)

    monkeypatch.setattr(actions, "_law_on_domains", counted)
    action = universal_action(subject(name))
    S, p = action.semigroup, action.space_size
    assert S.generators.size > 1
    validate_action(S, p, action.maps)
    assert calls["domains"] == 2 * sparse
    rng = np.random.default_rng(7)
    for broken in corrupted_maps(action.maps, rng, 8):
        assert (outcome(validate_action, S, p, broken)
                == outcome(reference_validate_action, S, p, broken))


def _images_agree(S, maps):
    """phi_a(phi_t x) = phi_(at)(x) for every generator a on every domain
    pair (t, x): the law with the domain count left out."""
    t, x = np.nonzero(maps >= 0)
    return all((maps[a, maps[t, x]] == maps[S.table[a, t], x]).all()
               for a in S.generators.tolist())


def test_sparse_action_certificate_refuses_a_point_outside_dom_t():
    """graph7's universal action is about 5% defined, so ``validate_action``
    reads it on its domain pairs.  The zero made to fix point 2 keeps the
    domain check (the zero is its own s*s), and the scan's first failing
    pair (0, t) fails only at points outside dom t, where phi_(0 t) = phi_0
    is defined; ``validate_action`` raises that pair."""
    action = universal_action(subject("graph7"))
    S, p = action.semigroup, action.space_size
    assert np.count_nonzero(action.maps >= 0) < actions.SPARSE_ACTION_SHARE * action.maps.size
    broken = action.maps.copy()
    broken[S.zero, 2] = 2
    expected = outcome(reference_validate_action, S, p, broken)
    assert expected is not None and expected[0] is NotHomomorphism
    with pytest.raises(NotHomomorphism) as raised:
        validate_action(S, p, broken)
    s, t = raised.value.pair
    after = compose_after(broken[s], broken[t])
    wrong = np.flatnonzero(after != broken[S.table[s, t]])
    assert (s, t) == (S.zero, 1) and wrong.size and (broken[t, wrong] < 0).all()
    assert outcome(validate_action, S, p, broken) == expected


def test_sparse_action_certificate_refuses_one_wrong_image():
    """One image of a non-idempotent of graph7 moved to a point outside its
    range: the domains stay, and ``validate_action`` raises the scan's pair."""
    action = universal_action(subject("graph7"))
    S, p = action.semigroup, action.space_size
    s = next(s for s in S.elements()
             if s not in S.idempotent_set and (action.maps[s] >= 0).any())
    x = int(np.argmax(action.maps[s] >= 0))
    broken = action.maps.copy()
    broken[s, x] = next(y for y in range(p) if y not in action.maps[s])
    expected = outcome(reference_validate_action, S, p, broken)
    assert expected is not None and expected[0] is NotHomomorphism
    assert outcome(validate_action, S, p, broken) == expected


def test_domain_pair_law_counts_the_points_outside_dom_t():
    """B2 = {0, a*a, aa*, a, a*} on one point, fixed by aa* alone: phi_(a a*)
    = phi_(aa*) is defined where phi_(a*) is not, and every domain pair
    agrees, so only the count refuses the law.  (The domain check refuses
    the map first, since a* and its s*s = aa* have different domains; no
    map that passes it and fails only the count is known.)"""
    S = builtin("b2")
    maps = np.array([[-1], [-1], [0], [-1], [-1]])
    assert _images_agree(S, maps)
    assert not actions._law_on_domains(S, maps, maps >= 0)
    with pytest.raises(DomainMismatch):
        validate_action(S, 1, maps)


# ---------------------------------------------------------------------------
# saturation, sigma and D classes


@pytest.mark.parametrize("name", SUBJECTS)
def test_saturation_equals_the_pairwise_union_find(name):
    S = subject(name)
    rng = random.Random(name)
    for _ in range(6):
        pairs = [(rng.randrange(S.size), rng.randrange(S.size))
                 for _ in range(rng.randint(0, 3))]
        R = reference_saturate(S, pairs)
        assert generated_congruence(S, pairs) == R
        [root] = congruences._saturate(S, [pairs], separate=S.idempotent_array)
        separating = all(len(set(b) & S.idempotent_set) <= 1 for b in R.blocks)
        assert (root is not None) == separating


@pytest.mark.parametrize("name", SUBJECTS)
def test_sigma_and_d_classes_equal_the_union_find(name):
    S = subject(name)
    assert sigma_relation(S) == reference_sigma(S)
    assert _d_classes(S) == reference_d_classes(S)


def test_join_roots_roots_each_block_at_its_least_element():
    root = congruences.join_roots(np.arange(8), [7, 5, 6, 1], [5, 3, 1, 2])
    assert root.tolist() == [0, 1, 1, 3, 4, 3, 1, 3]
    assert congruences.join_roots(root, [], []).tolist() == root.tolist()


# ---------------------------------------------------------------------------
# the spectrum basis and the semilattice layer


@pytest.mark.parametrize("name", SUBJECTS)
def test_spectrum_basis_equals_the_filter_loops(name):
    S = subject(name)
    E = semilattice_of(S)
    assert np.array_equal(E.meet, reference_semilattice_meet(S))
    assert E.parent_index.tolist() == sorted(S.idempotent_set)
    assert E.zero == (None if S.zero is None else E.parent_index.tolist().index(S.zero))
    for e in range(E.size):
        assert principal_filter(E, e) == reference_principal_filter(E, e)
    for filters in (all_filters(E), ultrafilters(E)):
        points = np.array([reference_generator(E, F) for F in filters], dtype=np.intp)
        expected = tuple(reference_spectrum_basis(E, filters))
        assert labeled_sets(*spectrum_basis(E, points)) == expected


def relabelled(name, seed):
    """A copy of the subject with its elements permuted at random."""
    T = subject(name).table
    perm = np.array(random.Random(seed).sample(range(len(T)), len(T)))
    moved = np.empty_like(T)
    moved[np.ix_(perm, perm)] = perm[T]
    return semigroups.validate_inverse_semigroup(moved)


@pytest.mark.parametrize("name", SUBJECTS + ("relabelled symmetric:4",))
def test_spectrum_points_name_the_filters_in_canonical_order(name):
    """The principal filters of the spectrum points, in order, are the
    filters as the frozenset pipeline sorted them: by sorted members."""
    S = relabelled("symmetric:4", 19) if name.startswith("relabelled") else subject(name)
    E = semilattice_of(S)
    canonical = sorted({reference_principal_filter(E, e) for e in range(E.size) if e != E.zero},
                       key=lambda F: tuple(sorted(F)))
    points = spectrum_points(E)
    assert points.dtype == np.intp
    assert [principal_filter(E, g) for g in points.tolist()] == canonical


@pytest.mark.parametrize("name", SUBJECTS + ("relabelled symmetric:4",))
def test_tight_action_is_the_universal_action_on_the_atoms(name):
    """The gather on the atoms gives the universal action's maps on the
    maximal filters, renumbered, their point labels and their basis."""
    S = relabelled("symmetric:4", 19) if name.startswith("relabelled") else subject(name)
    E = semilattice_of(S)
    tight = tight_action(S)
    maps, labels, basis = reference_tight_restriction(universal_action(S), E, spectrum_points(E))
    assert tight.maps.tolist() == maps
    assert tight.point_labels == labels
    assert labeled_sets(*tight.space_basis) == basis


@pytest.mark.parametrize("name", ["b2", "diamond_munn", "symmetric:2"])
def test_semilattice_of_maps_a_moved_zero(name):
    """The corpus keeps its zero at index 0; moved to the end, the zero of
    E is still the position of S's zero among the idempotents."""
    T = subject(name).table
    perm = np.roll(np.arange(len(T)), 1)           # element i becomes perm[i]
    moved = np.empty_like(T)
    moved[np.ix_(perm, perm)] = perm[T]
    S = semigroups.validate_inverse_semigroup(moved)
    E = semilattice_of(S)
    assert S.zero == len(T) - 1
    assert E.zero == E.parent_index.tolist().index(S.zero) == E.size - 1
    assert np.array_equal(E.meet, reference_semilattice_meet(S))


@pytest.mark.parametrize("table, triple", [([[0, 0, 0], [0, 1, 0], [0, 1, 2]], (1, 2, 1)),
                                           ([[0, 0, 0], [0, 1, 0], [1, 0, 2]], (1, 2, 0))])
def test_noncommuting_idempotents_fail_light_test(table, triple):
    """Every element of these tables has exactly one inverse, yet two
    idempotents do not commute: the tables are not associative, and Light's
    test names the witness over the generating set (2, 1)."""
    assert generating_set(np.array(table)).tolist() == [2, 1]
    assert semigroups._inverses(np.array(table)).tolist() == [0, 1, 2]
    with pytest.raises(NotAssociative) as raised:
        semigroups.validate_inverse_semigroup(table)
    assert raised.value.triple == triple


def test_wide_partial_bijections_take_a_multi_word_key():
    """Rows of 17 points need two int64 words per key: the identities of
    the prefixes of 17 points but the one-point prefix, and the same maps
    after the swap of points 0 and 1."""
    n = 17
    maps = [{x: x for x in range(k)} for k in range(n + 1) if k != 1]
    maps += [{0: 1, 1: 0, **{x: x for x in range(2, k)}} for k in range(2, n + 1)]
    rows = np.full((len(maps), n), -1, dtype=np.intp)
    for i, m in enumerate(maps):
        rows[i, list(m)] = list(m.values())
    S = partial_bijection_semigroup(rows, tuple(f"m{i}" for i in range(len(maps))))
    assert (S.table == table_from_maps(maps)).all()


def test_partial_bijections_not_closed_under_composition_are_refused():
    rows = np.array([[1, 0, -1], [0, 1, 2]])      # the swap squared is missing
    with pytest.raises(StructureError, match="not closed under composition"):
        partial_bijection_semigroup(rows, ("a", "b"))


# ---------------------------------------------------------------------------
# germs, kernels and induced subgroupoids


@pytest.mark.parametrize("name", SUBJECTS)
def test_germ_catalog_and_base_idempotents_equal_the_loops(name):
    """The least acting idempotents equal the fold, and are the m_x that
    ``germ.equivalence`` certifies, for the universal and tight actions."""
    S = subject(name)
    for action in _actions(name):
        assert germ_equivalence_is_equivalence(action)
        undeclared = Action(S, action.space_size, action.maps, action.point_labels)
        for a in (action, undeclared):
            germs = germ_groupoid(a)
            assert germs.base_idempotent.tolist() == list(reference_min_idempotents(a))
            assert _least_acting_idempotents(a).tolist() == germs.base_idempotent.tolist()
            G = germs.groupoid
            assert cut_catalog(G) == reference_theta_catalog(germs)
        assert np.array_equal(action_kernel(action), mask(S.size, reference_action_kernel(action)))


@pytest.mark.parametrize("name", SUBJECTS)
def test_induced_subgroupoid_closure_checks_equal_the_loops(name):
    S = subject(name)
    germs = germ_groupoid(universal_action(S))
    for subset in subsets(S, seed=len(name)):
        defect = reference_closure_defect(S, subset)
        inside = mask(S.size, subset)
        if defect is None:
            arrows = induced_subgroupoid(germs, inside).arrows
            assert np.array_equal(arrows, germs.germs_of(inside))
            assert np.array_equal(arrows, germs.germs_of(np.flatnonzero(inside)))
            assert (np.flatnonzero(arrows).tolist()
                    == sorted({a for s in subset for a in germs.germ_at[s].tolist() if a >= 0}))
            continue
        with pytest.raises(NotSubsemigroup) as raised:
            induced_subgroupoid(germs, inside)
        assert str(raised.value) == defect


@pytest.mark.parametrize("name", LADDER)
def test_ladder_groupoid_checks_equal_the_axiom_loops_on_corruptions(name):
    G = germ_groupoid(universal_action(subject(name))).groupoid
    validate_groupoid(G)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for broken in _single_entry_corruptions(G, rng, 2):
        message = _reference_axioms(broken)
        assert message is not None
        with pytest.raises(StructureError) as raised:
            validate_groupoid(broken)
        assert str(raised.value) == message


def relabeled_union(parts, perm):
    """The disjoint union of groupoids, arrow a renamed perm[a]."""
    n = sum(G.n_arrows for G in parts)
    perm = np.asarray(perm)
    table = np.full((n, n), -1, dtype=np.intp)
    r, d, inv = (np.empty(n, dtype=np.intp) for _ in range(3))
    units, at = [], 0
    for G in parts:
        block = perm[at:at + G.n_arrows]
        defined = G.table >= 0
        table[np.ix_(block, block)] = np.where(defined, perm[at + G.table], -1)
        r[block], d[block], inv[block] = perm[at + G.r], perm[at + G.d], perm[at + G.inv]
        units += perm[at + G.units].tolist()
        at += G.n_arrows
    return FiniteGroupoid(n, r, d, inv, table, np.array(sorted(units)),
                          tuple(f"a{a}" for a in range(n)), NO_CUTS)


def catalog_cuts(sets, labels):
    """A catalog of boolean rows over the arrows in index form: row i holds
    arrow a in column a where set i does, cut by one set of every column."""
    n = sets.shape[1]
    return Cuts(np.where(sets, np.arange(n), -1), np.ones((1, n), dtype=bool),
                tuple(labels), ("",), "{}")


def reference_interior_witnesses(catalog, subset):
    out = {}
    for label, members in catalog:
        if members and members <= subset:
            for a in members:
                out.setdefault(a, label)
    return out


def reference_is_open(catalog, subset):
    return frozenset(reference_interior_witnesses(catalog, subset)) == subset


def reference_is_effective(G, catalog):
    iso_off_units = frozenset(a for a in G.arrows() if G.r[a] == G.d[a]) - frozenset(G.units)
    return not any(members and members <= iso_off_units for _, members in catalog)


def _topologies(name):
    """The universal and tight germ groupoids of a subject, their
    centralizer copies, and each of the four with only its basis sets of
    two or more arrows, a coarser topology."""
    out = []
    for germs in (germ_groupoid(action) for action in _actions(name)):
        out += [germs.groupoid, centralizer_germs(germs).groupoid]
    for G in out[:4]:
        wide = G.basis.sum(axis=1) > 1
        labels = np.array([label for label, _ in cut_catalog(G)])
        out.append(dataclasses.replace(G, cuts=catalog_cuts(G.basis[wide], labels[wide].tolist())))
    return out


@pytest.mark.parametrize("name", SUBJECTS + ("no basis sets",))
def test_topology_predicates_equal_the_frozenset_loops(name):
    """interior_witnesses, interior, is_open, is_closed and is_effective on
    the empty set, all arrows, the isotropy, the units, the isotropy off
    the units, and random arrow sets and unions of basis sets; on a
    groupoid without basis sets every nonempty set has empty interior."""
    if name == "no basis sets":
        G = relabeled_union((PAIR2, PAIR2), np.arange(8))
        assert len(G.basis) == 0 and not interior(G, np.ones(8, dtype=bool)).any()
        topologies = [G]
    else:
        topologies = _topologies(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for G in topologies:
        n, catalog = G.n_arrows, cut_catalog(G)
        iso, units = frozenset(np.flatnonzero(iso_bundle(G)).tolist()), frozenset(G.units)
        subsets = [frozenset(), frozenset(range(n)), iso, units, iso - units]
        subsets += [frozenset(np.flatnonzero(rng.random(n) < 0.5).tolist()) for _ in range(3)]
        subsets += [frozenset(np.flatnonzero(G.basis[rng.random(len(G.basis)) < 0.2]
                                             .any(axis=0)).tolist()) for _ in range(3)]
        for subset in subsets:
            witnesses = reference_interior_witnesses(catalog, subset)
            inside = mask(n, subset)
            assert interior_witnesses(G, inside) == witnesses
            assert np.flatnonzero(interior(G, inside)).tolist() == sorted(witnesses)
            assert is_open(G, inside) == reference_is_open(catalog, subset)
            assert is_closed(G, inside) == reference_is_open(catalog, frozenset(range(n)) - subset)
        assert is_effective(G) == reference_is_effective(G, catalog)


@pytest.mark.parametrize("chunk", [CHUNK_ENTRIES, 1])
def test_associativity_witness_is_row_major_across_units(monkeypatch, chunk):
    """Two broken loops and a pair groupoid, arrows shuffled, so that the
    units' order differs from the pairs' row-major order: scanned with every
    pair in one chunk, or (chunk 1) one pair per chunk."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(12):
        G = relabeled_union((LOOP_GROUPOID, PAIR2, LOOP_GROUPOID), rng.permutation(18))
        message = _reference_axioms(G)
        assert message is not None and message.startswith("associativity")
        with pytest.raises(StructureError) as raised:
            validate_groupoid(G)
        assert str(raised.value) == message
        seen.add(message)
    assert len(seen) > 1


# Z7 with its elements renamed so that it shares the identity 0 and the
# inversion of the loop IP_LOOP: SEVENTHS[a] is the residue of element a
SEVENTHS = np.array([0, 1, 6, 2, 5, 3, 4])
Z7_RENAMED = np.argsort(SEVENTHS)[(SEVENTHS[:, None] + SEVENTHS) % 7]


def twisted_brandt(n, twisted):
    """X x X x {0..6} on the units X = 0..n-1: arrow (u, v, x) is
    7 (n u + v) + x, and (u, v, x)(v, w, y) = (u, w, xy), the product taken
    in the inverse-property loop of ``LOOP_GROUPOID`` for the unit triples
    (u, v, w) in twisted and in Z7 otherwise.  Both have the inversion
    (u, v, x)^-1 = (v, u, x^-1), so the inverse laws hold when twisted is
    closed under permuting its triples; associativity fails at the triples
    whose products reach a twisted triple."""
    def arrow(a, b, c):
        return 7 * (n * a + b) + c

    u, v, x = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), np.arange(7),
                                              indexing="ij"))
    cube = np.zeros((n, n, n), dtype=bool)            # the twisted unit triples
    for triple in twisted:
        cube[triple] = True
    xy = np.where(cube[u[:, None], v[:, None], v],    # (g, h) at the triple (r g, d g, d h)
                  LOOP_GROUPOID.table[x[:, None], x], Z7_RENAMED[x[:, None], x])
    table = np.where(v[:, None] == u, arrow(u[:, None], v, xy), -1)
    inv = arrow(v, u, LOOP_GROUPOID.inv[x])
    return FiniteGroupoid(u.size, arrow(u, u, 0), arrow(v, v, 0), inv, table,
                          arrow(np.arange(n), np.arange(n), 0),
                          tuple(f"a{a}" for a in range(u.size)), NO_CUTS)


@pytest.mark.parametrize("n,twisted,units", [
    # only the isotropy group of unit 1, a non-base unit of a 2-unit orbit
    (2, {(1, 1, 1)}, (1,)),
    # only products between the non-base units 1 and 2 of a 3-unit orbit:
    # the unit triples that permute (1, 2, 1), as (1 <- 2)(2 <- 1), then
    # those that permute (1, 2, 2), as (1 <- 2)(2 <- 2)
    (3, {(1, 2, 1), (1, 1, 2), (2, 1, 1)}, (1, 2)),
    (3, {(1, 2, 2), (2, 1, 2), (2, 2, 1)}, (1, 2)),
])
def test_associativity_witness_off_the_base_unit(n, twisted, units):
    """Relabeled unions of a twisted Brandt groupoid with PAIR2 and Z7, in
    which the twisted units are never their orbit's least unit: the only
    inputs here whose associativity fails away from that unit.  The
    untwisted one validates, and on each union the scan names the triple of
    the axiom loops."""
    validate_groupoid(twisted_brandt(n, ()))
    twist = twisted_brandt(n, twisted)
    parts = (PAIR2, twist, groupoids.group_as_groupoid(Z7_RENAMED))
    offset = PAIR2.n_arrows
    orbit = [offset + 7 * (n + 1) * u for u in range(n)]       # the twist's units
    rng = np.random.default_rng(n + len(twisted))
    seen, tried = set(), 0
    while tried < 6:
        perm = rng.permutation(sum(G.n_arrows for G in parts))
        if any(perm[orbit[u]] < perm[orbit[0]] for u in units):
            continue            # a twisted unit would be the base
        G = relabeled_union(parts, perm)
        message = _reference_axioms(G)
        assert message is not None and message.startswith("associativity")
        with pytest.raises(StructureError) as raised:
            validate_groupoid(G)
        assert str(raised.value) == message
        seen.add(message)
        tried += 1
    assert len(seen) > 1


# ---------------------------------------------------------------------------
# no per-element loop comes back


def test_universal_suite_makes_no_per_element_calls(monkeypatch):
    """Calls made by one universal suite run on the 210-element graph7.

    Once 2,594 ``InverseSemigroup.mul``, 10,634 ``Semilattice.leq`` and
    1,623 ``UnionFind.union`` calls were made, and 210 ``compose_after``
    calls in ``validate_action``.  Now neither ``mul`` nor ``leq`` is called
    (the spectrum checks test member masks with ``filter_defects``), nor
    ``GermGroupoid.principal_point`` (the fiber checks find every
    idempotent's principal unit by one scatter), the union-find is gone
    (merges are ``join_roots`` passes, and none runs here: mu's maximality
    is certified by partition refinement, not by saturating sampled pairs),
    and ``validate_action`` composes no rows: the universal action is about
    5% defined, so its 27 generators are compared on the domain pairs only.
    """
    S = actions.graph_inverse_semigroup(GRAPH7)
    calls = Counter()

    def counting(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(semigroups.InverseSemigroup, "mul", "mul")
    counting(Semilattice, "leq", "leq")
    counting(congruences, "join_roots", "join_roots")
    counting(actions, "compose_after", "compose_after")
    counting(actions.GermGroupoid, "principal_point", "principal_point")
    [report] = run_suite("graph7", S, "universal")
    assert report.passed
    assert dict(calls) == {}
    assert calls["leq"] == calls["principal_point"] == 0
    assert calls["join_roots"] == 0
    assert not hasattr(congruences, "UnionFind")


def test_sampler_keeps_its_relations_with_the_components_pass():
    """The sampled congruences are those of full saturation by the loops."""
    S = subject("graph7")
    for seed in (0, 1):
        rng = random.Random(seed)
        expected = []
        for _ in range(20):
            pairs = [(rng.randrange(S.size), rng.randrange(S.size))
                     for _ in range(rng.randint(1, 2))]
            R = reference_saturate(S, pairs)
            if all(len(set(b) & S.idempotent_set) <= 1 for b in R.blocks):
                expected.append(R)
        assert random_idempotent_separating_congruences(S, seed=seed) == expected
