import pytest

from germlab.actions import (
    Action,
    DirectedGraph,
    PartialMap,
    action_kernel,
    centralizer_germs,
    domains_form_base,
    germ_equivalence_is_equivalence,
    germ_groupoid,
    graph_inverse_semigroup,
    induced_subgroupoid,
    tight_action,
    universal_action,
    validate_action,
)
from germlab.builtins import builtin
from germlab.errors import CyclicGraph, DomainMismatch, NotCovering, NotSubsemigroup
from germlab.semigroups import centralizer, idempotents, validate_inverse_semigroup
from germlab.semilattices import is_zero_disjunctive, munn_semigroup, semilattice_of, validate_semilattice

from test_congruences import CHAIN_ID_TABLE
from test_semigroups import B2_TABLE, Z2_TABLE
from test_semilattices import DIAMOND_LABELS, DIAMOND_MEET


def diamond_munn():
    return munn_semigroup(validate_semilattice(DIAMOND_MEET, labels=DIAMOND_LABELS))


def translation_action(table):
    S = validate_inverse_semigroup(table)
    maps = [PartialMap(tuple(S.mul(g, x) for x in S.elements())) for g in S.elements()]
    return validate_action(S, S.size, maps)


def test_group_translation_action_is_valid():
    action = translation_action(Z2_TABLE)
    assert action.space_size == 2


def test_validate_action_rejects_wrong_domains():
    S = validate_inverse_semigroup(Z2_TABLE)
    # identity acts everywhere but the other element acts nowhere
    maps = [PartialMap((0, 1)), PartialMap((None, None))]
    with pytest.raises(DomainMismatch):
        validate_action(S, 2, maps)


def test_validate_action_requires_covering():
    E = validate_inverse_semigroup([[0]])
    maps = [PartialMap((0, None))]
    with pytest.raises(NotCovering):
        validate_action(E, 2, maps)


def test_universal_action_of_b2_has_singleton_domains():
    S = validate_inverse_semigroup(B2_TABLE)
    beta = universal_action(S)
    assert beta.space_size == 2
    # the two non-idempotents translate between the two singleton domains
    for s in (3, 4):
        assert len(beta.domain_of(s)) == 1
    assert beta.domain_of(3) != beta.maps[3].image


def test_universal_action_zero_has_empty_domain():
    S = validate_inverse_semigroup(B2_TABLE)
    beta = universal_action(S)
    assert beta.domain_of(0) == frozenset()


def test_clifford_action_fixes_filters():
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    beta = universal_action(S)
    for s in S.elements():
        assert beta.maps[s].is_identity_on_domain()


def test_germ_equivalence_is_an_equivalence():
    for S in (validate_inverse_semigroup(B2_TABLE),
              validate_inverse_semigroup(CHAIN_ID_TABLE),
              diamond_munn()):
        assert germ_equivalence_is_equivalence(universal_action(S))


def test_germ_equivalence_rejects_idempotent_domains_not_closed_under_meets():
    # Built directly, past validate_action: on one point x the idempotents
    # {0>0}, {1>1} and the identity act, but their meet {} does not.
    S = builtin("symmetric:2")
    acting = {S.labels.index(k) for k in ("{0>0}", "{1>1}", "{0>0,1>1}")}
    maps = tuple(PartialMap((0,) if s in acting else (None,)) for s in S.elements())
    action = Action(S, 1, maps, ("x",))

    def related(s, t):
        return any(e in acting and S.mul(s, e) == S.mul(t, e)
                   for e in S.idempotent_set)

    left, ident, right = (S.labels.index(k) for k in ("{0>0}", "{0>0,1>1}", "{1>1}"))
    assert related(left, ident) and related(ident, right)
    assert not related(left, right)       # identification is not transitive here
    assert not germ_equivalence_is_equivalence(action)


def test_b2_universal_germs_form_the_pair_groupoid():
    S = validate_inverse_semigroup(B2_TABLE)
    germs = germ_groupoid(universal_action(S))
    G = germs.groupoid
    assert G.n_arrows == 4
    assert len(G.units) == 2
    from germlab.groupoids import groupoid_isomorphic, pair_groupoid

    assert groupoid_isomorphic(G, pair_groupoid(2)) is not None


def test_diamond_universal_germs_counts():
    germs = germ_groupoid(universal_action(diamond_munn()))
    assert germs.groupoid.n_arrows == 6
    assert len(germs.groupoid.units) == 3


def test_diamond_swap_germ_is_isolated_by_its_basis_set():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    top = max(idempotents(S), key=lambda e: sum(S.leq[f, e] for f in idempotents(S)))
    swap = next(s for s in S.elements()
                if s != top and S.mul(S.inv[s], s) == top == S.mul(s, S.inv[s]))
    point = next(x for x in range(germs.action.space_size)
                 if germs.action.point_labels[x] == f"up({S.label(top)})")
    arrow = germs.germ(swap, point)
    singled = [label for label, members in germs.groupoid.basis
               if members == frozenset({arrow})]
    assert any(label.startswith(f"Theta({S.label(swap)},N^") for label in singled)


def test_action_kernel_of_universal_action_is_centralizer():
    for table in (B2_TABLE, CHAIN_ID_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        assert action_kernel(universal_action(S)) == centralizer(S)
    S = diamond_munn()
    assert action_kernel(universal_action(S)) == centralizer(S)


def test_action_kernel_of_faithful_group_action_is_identity():
    action = translation_action(Z2_TABLE)
    assert action_kernel(action) == {0}


def test_tight_action_of_diamond_swaps_the_two_ultrafilters():
    S = diamond_munn()
    theta = tight_action(S)
    assert theta.space_size == 2
    assert is_zero_disjunctive(semilattice_of(S))
    assert action_kernel(theta) == centralizer(S)


def test_tight_action_of_b2_equals_universal():
    S = validate_inverse_semigroup(B2_TABLE)
    beta, theta = universal_action(S), tight_action(S)
    assert theta.space_size == beta.space_size
    assert [m.images for m in theta.maps] == [m.images for m in beta.maps]


def test_domains_form_base_cases():
    S = diamond_munn()
    assert domains_form_base(tight_action(S))
    assert not domains_form_base(universal_action(S))
    assert not domains_form_base(translation_action(Z2_TABLE))


def test_induced_subgroupoid_extremes():
    S = validate_inverse_semigroup(B2_TABLE)
    germs = germ_groupoid(universal_action(S))
    units_only = induced_subgroupoid(germs, idempotents(S))
    assert units_only.arrows == frozenset(germs.groupoid.units)
    everything = induced_subgroupoid(germs, frozenset(S.elements()))
    assert everything.arrows == frozenset(germs.groupoid.arrows())


def test_induced_subgroupoid_requires_subsemigroup():
    S = validate_inverse_semigroup(B2_TABLE)
    germs = germ_groupoid(universal_action(S))
    with pytest.raises(NotSubsemigroup):
        induced_subgroupoid(germs, frozenset({0}))


def test_diamond_centralizer_groupoid_is_just_the_units():
    germs = germ_groupoid(universal_action(diamond_munn()))
    emb = centralizer_germs(germs)
    assert emb.arrows == frozenset(germs.groupoid.units)


def test_graph_inverse_semigroup_single_vertex():
    S = graph_inverse_semigroup(DirectedGraph(1, ()))
    assert S.size == 2
    assert S.zero is not None


def test_graph_inverse_semigroup_single_edge_not_zero_disjunctive():
    S = graph_inverse_semigroup(DirectedGraph(2, ((0, 1),)))
    assert S.size == 6
    assert not is_zero_disjunctive(semilattice_of(S))


def test_graph_inverse_semigroup_parallel_edges_zero_disjunctive():
    S = graph_inverse_semigroup(DirectedGraph(2, ((0, 1), (0, 1))))
    assert S.size == 11
    assert is_zero_disjunctive(semilattice_of(S))


def test_graph_inverse_semigroup_rejects_cycles():
    with pytest.raises(CyclicGraph):
        graph_inverse_semigroup(DirectedGraph(2, ((0, 1), (1, 0))))
