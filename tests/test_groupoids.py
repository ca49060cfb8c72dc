import dataclasses

import pytest

from germlab.actions import centralizer_germs, germ_groupoid, universal_action
from germlab.errors import SearchBudgetExceeded, StructureError
from germlab.groupoids import (
    FiniteGroupoid,
    conjugation_action,
    extract_subgroupoid,
    fiber_group,
    group_as_groupoid,
    groupoid_isomorphic,
    interior_witnesses,
    is_effective,
    is_essentially_principal,
    is_group_bundle,
    iso_bundle,
    iso_interior,
    pair_groupoid,
    semidirect_product,
    subgroupoid_properties,
    validate_groupoid,
)
from germlab.semigroups import h_class_of, idempotents, validate_inverse_semigroup

from test_actions import diamond_munn
from test_congruences import CHAIN_ID_TABLE
from test_semigroups import B2_TABLE, Z2_TABLE

Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_pair_groupoid_isotropy_is_units():
    G = pair_groupoid(2)
    validate_groupoid(G)
    assert iso_bundle(G) == frozenset(G.units)
    assert iso_interior(G) == frozenset(G.units)
    assert not is_group_bundle(G)
    assert is_effective(G)
    assert is_essentially_principal(G)


def test_group_groupoid_is_a_group_bundle():
    G = group_as_groupoid(Z2_TABLE)
    assert is_group_bundle(G)
    assert iso_bundle(G) == frozenset(G.arrows())


def test_diamond_swap_germ_lies_in_isotropy_interior():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    G = germs.groupoid
    iso = iso_bundle(G)
    inner = iso_interior(G)
    assert inner == iso
    assert len(iso) == len(G.units) + 1
    witness = set(inner) - set(G.units)
    assert len(witness) == 1
    # the non-unit interior arrow is certified by an isolating basis set
    wit_arrow = witness.pop()
    label = interior_witnesses(G, iso)[wit_arrow]
    assert label.startswith("Theta(")
    assert not is_essentially_principal(G)
    assert not is_effective(G)


def test_b2_universal_groupoid_is_effective_and_essentially_principal():
    S = validate_inverse_semigroup(B2_TABLE)
    G = germ_groupoid(universal_action(S)).groupoid
    assert is_effective(G)
    assert is_essentially_principal(G)


def test_clifford_universal_groupoid_is_group_bundle():
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    G = germ_groupoid(universal_action(S)).groupoid
    assert is_group_bundle(G)


def test_fiber_groups_match_h_classes():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    G = germs.groupoid
    for e in sorted(idempotents(S)):
        if e == S.zero:
            continue  # the zero generates no filter
        point = germs.principal_point(e)
        fiber = fiber_group(G, germs.unit_at_point[point])
        assert fiber.order == len(h_class_of(S, e))


def test_diamond_top_fiber_is_order_two():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    orders = sorted(fiber_group(germs.groupoid, u).order for u in germs.groupoid.units)
    assert orders == [1, 1, 2]


def test_unit_space_is_wide_closed_normal_subgroupoid():
    G = pair_groupoid(3)
    props = subgroupoid_properties(G, frozenset(G.units))
    assert props.is_subgroupoid and props.wide and props.normal and props.closed


def test_centralizer_groupoid_is_open_wide_normal():
    for S in (validate_inverse_semigroup(B2_TABLE),
              validate_inverse_semigroup(CHAIN_ID_TABLE),
              diamond_munn()):
        germs = germ_groupoid(universal_action(S))
        emb = centralizer_germs(germs)
        props = subgroupoid_properties(germs.groupoid, emb.arrows)
        assert props.is_subgroupoid and props.open and props.wide and props.normal
        assert props.closed


def test_extract_subgroupoid_roundtrip():
    G = pair_groupoid(2)
    sub, order = extract_subgroupoid(G, frozenset(G.units))
    assert sub.n_arrows == 2
    assert order == tuple(sorted(G.units))
    with pytest.raises(StructureError):
        extract_subgroupoid(G, frozenset({0, 1}))


def test_groupoid_isomorphic_to_itself():
    G = pair_groupoid(2)
    assert groupoid_isomorphic(G, G) is not None


def test_b2_universal_groupoid_isomorphic_to_pair_groupoid():
    S = validate_inverse_semigroup(B2_TABLE)
    G = germ_groupoid(universal_action(S)).groupoid
    iso = groupoid_isomorphic(G, pair_groupoid(2))
    assert iso is not None


def test_groups_of_different_order_not_isomorphic():
    assert groupoid_isomorphic(group_as_groupoid(Z2_TABLE),
                               group_as_groupoid(Z3_TABLE)) is None


def test_isomorphism_search_budget():
    G = pair_groupoid(9)  # 81 arrows
    with pytest.raises(SearchBudgetExceeded):
        groupoid_isomorphic(G, G)


def test_semidirect_with_unit_bundle_recovers_g():
    ambient = pair_groupoid(2)
    H, G, act = conjugation_action(ambient, frozenset(ambient.units),
                                   frozenset(ambient.arrows()))
    P = semidirect_product(H, G, act)
    assert groupoid_isomorphic(P, ambient) is not None


def test_semidirect_with_unit_g_recovers_h():
    ambient = group_as_groupoid(Z2_TABLE)
    H, G, act = conjugation_action(ambient, frozenset(ambient.arrows()),
                                   frozenset(ambient.units))
    P = semidirect_product(H, G, act)
    assert groupoid_isomorphic(P, ambient) is not None


def test_essentially_principal_iff_effective_on_samples():
    subjects = [pair_groupoid(2), pair_groupoid(3), group_as_groupoid(Z2_TABLE)]
    for S in (validate_inverse_semigroup(B2_TABLE),
              validate_inverse_semigroup(CHAIN_ID_TABLE), diamond_munn()):
        subjects.append(germ_groupoid(universal_action(S)).groupoid)
    for G in subjects:
        assert is_essentially_principal(G) == is_effective(G)


PAIR2 = pair_groupoid(2)     # arrows 0=(0<-0) 1=(0<-1) 2=(1<-0) 3=(1<-1), units 0, 3
GROUP_Z2 = group_as_groupoid(Z2_TABLE)
# A non-associative loop with the inverse property: x^-1 (x y) = y = (y x) x^-1.
# None has fewer than 7 elements, and in the two groupoids above the inverse
# laws force the products, so associativity is broken on this one instead.
IP_LOOP = ((0, 1, 2, 3, 4, 5, 6), (1, 2, 0, 5, 6, 4, 3), (2, 0, 1, 6, 5, 3, 4),
           (3, 6, 5, 4, 0, 1, 2), (4, 5, 6, 0, 3, 2, 1), (5, 3, 4, 2, 1, 6, 0),
           (6, 4, 3, 1, 2, 0, 5))
LOOP_GROUPOID = FiniteGroupoid(7, (0,) * 7, (0,) * 7, (0, 2, 1, 4, 3, 6, 5),
                               {(a, b): IP_LOOP[a][b] for a in range(7) for b in range(7)},
                               (0,), tuple(f"l{a}" for a in range(7)), ())


@pytest.mark.parametrize("G,fields,message", [
    (GROUP_Z2, {"comp": {**GROUP_Z2.comp, (0, 0): 1}}, "unit 0 fails u = u.u = u^-1"),
    (GROUP_Z2, {"inv": (1, 1)}, "unit 0 fails u = u.u = u^-1"),
    (PAIR2, {"r": (3, 0, 3, 3)}, "unit 0 is not its own range/source"),
    (PAIR2, {"units": (0,)}, "range/source of arrow 1 is not a unit"),
    (PAIR2, {"inv": (0, 1, 1, 3)}, "arrow 1: a.a^-1 is not r(a)"),
    (PAIR2, {"comp": {**PAIR2.comp, (2, 1): 0}}, "arrow 1: a^-1.a is not d(a)"),
    (PAIR2, {"comp": {**PAIR2.comp, (0, 3): 0}}, "composition defined on non-composable (0,3)"),
    (PAIR2, {"comp": {**PAIR2.comp, (0, 1): 0}}, "composition (0,1) breaks range/source"),
    (PAIR2, {"comp": {k: v for k, v in PAIR2.comp.items() if k != (0, 1)}},
     "composability mismatch at (0,1)"),
    (GROUP_Z2, {"comp": {**GROUP_Z2.comp, (0, 1): 0}}, "inverse laws fail at (0,1)"),
    (LOOP_GROUPOID, {}, "associativity fails at (1,1,3)"),
    (PAIR2, {"basis": PAIR2.basis + (("{x}", frozenset({4})),)}, "basis set out of range"),
])
def test_validate_groupoid_names_the_broken_axiom(G, fields, message):
    with pytest.raises(StructureError) as err:
        validate_groupoid(dataclasses.replace(G, **fields))
    assert str(err.value) == message
