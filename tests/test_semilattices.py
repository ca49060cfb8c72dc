import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from germlab.errors import NotAssociative, SizeBudgetExceeded, StructureError, ZeroRequired
from germlab.semilattices import (
    EXHAUSTIVE_FILTER_CAP,
    all_filters,
    atoms,
    is_zero_disjunctive,
    munn_semigroup,
    semilattice_of,
    spectrum_basis,
    spectrum_points,
    symmetric_inverse_monoid,
    ultrafilters,
    up_sets,
    validate_semilattice,
)
from germlab.semigroups import validate_inverse_semigroup

from test_semigroups import (
    B2_TABLE,
    lower_intersection_generators,
    partial_bijections,
    table_from_maps,
)


def is_filter(E, members: frozenset[int]) -> bool:
    """Nonempty, meet-closed, upward closed, and avoiding the zero: the
    definition as a loop over ``leq`` and ``wedge``, the oracle of
    ``semilattices.filter_defects``."""
    if not members:
        return False
    if E.zero is not None and E.zero in members:
        return False
    for e in members:
        for f in members:
            if E.wedge(e, f) not in members:
                return False
        for f in range(E.size):
            if E.leq(e, f) and f not in members:
                return False
    return True


def exhaustive_filters(E) -> list[frozenset[int]]:
    """Every subset that passes is_filter, canonically ordered: the oracle of
    ``semilattices.up_set_filters``.  2^|E| tests, so it refuses
    semilattices with more than EXHAUSTIVE_FILTER_CAP elements."""
    if E.size > EXHAUSTIVE_FILTER_CAP:
        raise SizeBudgetExceeded(f"subset enumeration is capped at {EXHAUSTIVE_FILTER_CAP}")
    return sorted((frozenset(sub) for size in range(1, E.size + 1)
                   for sub in combinations(range(E.size), size) if is_filter(E, frozenset(sub))),
                  key=lambda F: tuple(sorted(F)))


# 0 < a,b < 1 with a,b incomparable; indices 0,a=1,b=2,1=3
DIAMOND_MEET = [
    [0, 0, 0, 0],
    [0, 1, 0, 1],
    [0, 0, 2, 2],
    [0, 1, 2, 3],
]
DIAMOND_LABELS = ("0", "a", "b", "1")

CHAIN3_MEET = [
    [0, 0, 0],
    [0, 1, 1],
    [0, 1, 2],
]

# two atoms over a zero (the idempotent semilattice of B2)
VEE_MEET = [
    [0, 0, 0],
    [0, 1, 0],
    [0, 0, 2],
]


def diamond():
    return validate_semilattice(DIAMOND_MEET, labels=DIAMOND_LABELS)


def tables_isomorphic(A, B) -> bool:
    if A.size != B.size:
        return False
    n = A.size
    for p in permutations(range(n)):
        if all(p[A.mul(i, j)] == B.mul(p[i], p[j]) for i in range(n) for j in range(n)):
            return True
    return False


def test_semilattice_of_group_is_single_point():
    G = validate_inverse_semigroup([[0, 1], [1, 0]])
    E = semilattice_of(G)
    assert E.size == 1
    assert E.zero is None


def test_semilattice_of_b2_is_two_atoms_over_zero():
    B = validate_inverse_semigroup(B2_TABLE)
    E = semilattice_of(B)
    assert E.size == 3
    assert E.zero is not None
    atoms = [e for e in range(E.size) if e != E.zero]
    assert all(E.wedge(atoms[0], atoms[1]) == E.zero for _ in [0])


def test_diamond_filters():
    E = diamond()
    filters = all_filters(E)
    assert filters == [frozenset({1, 3}), frozenset({2, 3}), frozenset({3})]
    for F in filters:
        assert is_filter(E, F)


def test_chain_without_parent_zero_has_two_filters():
    E = validate_semilattice([[0, 0], [0, 1]], zero=None)
    assert len(all_filters(E)) == 2


def test_a_commutative_idempotent_table_that_is_not_associative_is_refused():
    """(0 0) 2 = 0 2 = 1 but 0 (0 2) = 0 1 = 0: Light's test names the triple."""
    with pytest.raises(NotAssociative) as refused:
        validate_semilattice([[0, 0, 1], [0, 1, 2], [1, 2, 2]])
    assert refused.value.triple == (0, 0, 2)


@pytest.mark.parametrize("meet, message", [
    ([[0, 1], [0, 1]], "meet is not commutative"),
    ([[0, 0], [0, 0]], "meet is not idempotent"),
])
def test_meet_tables_that_are_not_commutative_or_idempotent_are_refused(meet, message):
    with pytest.raises(StructureError, match=message):
        validate_semilattice(meet)


def test_b2_semilattice_has_two_filters():
    B = validate_inverse_semigroup(B2_TABLE)
    assert len(all_filters(semilattice_of(B))) == 2


def test_filters_satisfy_closures_literally():
    for E in (diamond(), validate_semilattice(CHAIN3_MEET), validate_semilattice(VEE_MEET)):
        for F in all_filters(E):
            assert F
            for e in F:
                for f in F:
                    assert E.wedge(e, f) in F
                for f in range(E.size):
                    if E.leq(e, f):
                        assert f in F
            if E.zero is not None:
                assert E.zero not in F


def test_diamond_ultrafilters_and_tight_spectrum():
    E = diamond()
    ultra = ultrafilters(E)
    assert ultra == [frozenset({1, 3}), frozenset({2, 3})]
    assert atoms(E).tolist() == [1, 2]       # the tight spectrum


def test_chain_with_zero_has_single_ultrafilter():
    E = validate_semilattice(CHAIN3_MEET)
    assert ultrafilters(E) == [frozenset({1, 2})]


def test_one_point_semilattice_spectrum():
    E = validate_semilattice([[0]], zero=None)
    assert ultrafilters(E) == [frozenset({0})]


def test_spectrum_basis_isolates_the_top_filter_by_excluding_both_atoms():
    E = diamond()
    points = spectrum_points(E)
    assert points.tolist() == [1, 2, 3]
    sets, labels = spectrum_basis(E, points)
    assert sets[labels.index("N^1_{a,b}")].tolist() == [False, False, True]


def test_zero_disjunctive_predicate():
    assert is_zero_disjunctive(diamond())
    assert not is_zero_disjunctive(validate_semilattice(CHAIN3_MEET))
    assert is_zero_disjunctive(validate_semilattice(VEE_MEET))
    with pytest.raises(ZeroRequired):
        is_zero_disjunctive(validate_semilattice([[0, 0], [0, 1]], zero=None))


def zero_disjunctive_loop(E) -> bool:
    """The definition as a loop over ``leq`` and ``wedge``, the oracle of
    the one-product ``is_zero_disjunctive``."""
    z = E.zero
    for f in range(E.size):
        for e in range(E.size):
            if e in (z, f) or not E.leq(e, f):
                continue
            if not any(ep not in (z, f) and E.leq(ep, f) and E.wedge(e, ep) == z
                       for ep in range(E.size)):
                return False
    return True


def random_meet_table(rng, points: int, sets: int) -> list[list[int]]:
    """The intersection table of random subsets of the points, closed under
    intersection: a meet semilattice, its bottom the least set."""
    family = {frozenset(rng.sample(range(points), rng.randint(0, points)))
              for _ in range(sets)}
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    members = sorted(family, key=lambda a: (len(a), sorted(a)))
    index = {a: i for i, a in enumerate(members)}
    return [[index[a & b] for b in members] for a in members]


def zero_disjunctive_cases():
    """The semilattices of the corpus and of symmetric:4, their bottom the
    zero where the semigroup has none, and seeded random meet tables."""
    from germlab.builtins import CORPUS_NAMES, builtin

    cases = []
    for name in CORPUS_NAMES + ("symmetric:4",):
        E = semilattice_of(builtin(name))
        cases.append((name, E if E.zero is not None else validate_semilattice(E.meet)))
    rng = random.Random(5)
    for k in range(40):
        meet = random_meet_table(rng, rng.randint(2, 7), rng.randint(1, 8))
        cases.append((f"random:{k}", validate_semilattice(meet)))
    return cases


def test_zero_disjunctive_product_matches_the_loop():
    """Both verdicts occur: chain3, graph:path2 and many random tables are
    negative cases; the Clifford chains' 2-chain, closed by its bottom,
    holds vacuously, with no pair 0 < e < f."""
    cases = zero_disjunctive_cases()
    verdicts = {name: is_zero_disjunctive(E) for name, E in cases}
    assert verdicts == {name: zero_disjunctive_loop(E) for name, E in cases}
    assert not (verdicts["semilattice:chain3"] or verdicts["graph:path2"])
    assert verdicts["symmetric:4"] and verdicts["b2"] and verdicts["clifford_chain:kill"]
    drawn = [v for name, v in verdicts.items() if name.startswith("random:")]
    assert any(drawn) and not all(drawn)


def test_munn_semigroup_of_diamond_has_seven_elements():
    T = munn_semigroup(diamond())
    assert T.size == 7
    assert T.idempotent_array.size == 4


def test_munn_semigroup_of_point_is_trivial():
    T = munn_semigroup(validate_semilattice([[0]]))
    assert T.size == 1


def test_munn_semigroup_of_two_atoms_is_b2():
    T = munn_semigroup(validate_semilattice(VEE_MEET))
    assert T.size == 5
    B = validate_inverse_semigroup(B2_TABLE)
    assert tables_isomorphic(T, B)


def test_munn_idempotent_semilattice_matches_input():
    for meet in (DIAMOND_MEET, CHAIN3_MEET, VEE_MEET):
        E = validate_semilattice(meet)
        T = munn_semigroup(E)
        ET = semilattice_of(T)
        assert ET.size == E.size
        # meet tables agree up to a poset isomorphism
        SE = validate_inverse_semigroup(E.meet)
        ST = validate_inverse_semigroup(ET.meet)
        assert tables_isomorphic(SE, ST)


def test_diamond_munn_natural_order_and_common_lower_bounds():
    from germlab.semigroups import natural_leq

    T = munn_semigroup(diamond())
    idems = T.idempotent_array.tolist()
    top = max(idems, key=lambda e: sum(T.leq[f, e] for f in idems))
    swap = next(s for s in T.elements()
                if s != top and T.mul(T.inv[s], s) == top == T.mul(s, T.inv[s]))
    # each ideal identity sits below the identity of the whole semilattice
    for e in idems:
        assert natural_leq(T, e, top)
    # the swap and the identity only share the zero map below them
    assert T.zero is not None
    assert lower_intersection_generators(T, swap, top) == {T.zero}


def test_h_relation_on_diamond_munn_is_not_a_congruence():
    from germlab.congruences import congruence_witness

    T = munn_semigroup(diamond())
    H = T.h_partition
    witness = congruence_witness(T, H)
    assert witness is not None
    a, b, c, d = witness
    assert H.related(a, b) and H.related(c, d)
    assert not H.related(T.mul(a, c), T.mul(b, d))


def test_symmetric_inverse_monoid_counts():
    for n in (1, 2, 3):
        S = symmetric_inverse_monoid(n)
        assert S.size == sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    assert symmetric_inverse_monoid(1).size == 2
    assert symmetric_inverse_monoid(2).size == 7
    assert symmetric_inverse_monoid(3).size == 34


def test_symmetric_inverse_monoid_budget():
    with pytest.raises(SizeBudgetExceeded):
        symmetric_inverse_monoid(6)


def test_exhaustive_filters_refuse_semilattices_above_the_cap():
    n = EXHAUSTIVE_FILTER_CAP + 1
    chain = validate_semilattice([[min(i, j) for j in range(n)] for i in range(n)])
    assert len(all_filters(chain)) == n - 1
    with pytest.raises(SizeBudgetExceeded):
        exhaustive_filters(chain)
    with pytest.raises(SizeBudgetExceeded):
        up_sets(chain)


@pytest.mark.parametrize("n", range(5))
def test_symmetric_inverse_monoid_table_equals_the_dict_composition(n):
    maps = sorted(partial_bijections(range(n)), key=lambda m: (len(m), sorted(m.items())))
    S = symmetric_inverse_monoid(n)
    assert (S.table == table_from_maps(maps)).all()
    assert S.labels == tuple("{" + ",".join(f"{x}>{y}" for x, y in sorted(m.items())) + "}"
                             for m in maps)


def _munn_dicts(E):
    """Every order isomorphism between principal ideals, as dicts in key order."""
    from germlab.semilattices import _order_isos

    leq = E.order.tolist()
    ideals = [tuple(x for x in range(E.size) if leq[x][e]) for e in range(E.size)]
    maps = {}
    for dom in ideals:
        for img in ideals:
            for iso in _order_isos(leq, dom, img):
                maps.setdefault(tuple(sorted(iso.items())), iso)
    return [maps[key] for key in sorted(maps)]


def test_munn_tables_equal_the_dict_composition():
    from germlab.builtins import corpus
    from germlab.semilattices import _munn_label
    from germlab.suites import MUNN_CHECK_CAP

    checked = 0
    for name, S in corpus():
        E = semilattice_of(S)
        if E.size > MUNN_CHECK_CAP:
            continue
        maps = _munn_dicts(E)
        T = munn_semigroup(E)
        assert (T.table == table_from_maps(maps)).all(), name
        assert T.labels == tuple(_munn_label(E, m) for m in maps), name
        checked += 1
    assert checked >= 20
