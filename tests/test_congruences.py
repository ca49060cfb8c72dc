import random

import pytest
from hypothesis import given, settings, strategies as st

from germlab.builtins import CORPUS_NAMES, builtin
from germlab.congruences import (
    Relation,
    find_split_transversal,
    generated_congruence,
    is_congruence,
    is_cryptic,
    is_fundamental,
    is_idempotent_separating,
    kernel_of,
    mu_relation,
    munn_quotient,
    quotient,
    random_idempotent_separating_congruences,
    sigma_and_group_image,
    sigma_relation,
)
from germlab.errors import NotACongruence
from germlab.semigroups import centralizer, idempotents, validate_inverse_semigroup

from test_semigroups import B2_TABLE, Z2_TABLE

# Strong semilattice of two order-2 groups over a 2-chain, identity link.
# Elements: 0=e (top identity), 1=u, 2=f (bottom identity), 3=v.
CHAIN_ID_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 2, 3],
    [3, 2, 3, 2],
]

# Same chain but the link kills the top group (u maps to f).
CHAIN_KILL_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 2, 3],
    [2, 2, 2, 3],
    [3, 3, 3, 2],
]

TWO_CHAIN_SEMILATTICE = [[0, 1], [1, 1]]


def b2():
    return validate_inverse_semigroup(B2_TABLE)


def chain_id():
    return validate_inverse_semigroup(CHAIN_ID_TABLE)


def test_identity_and_universal_relations_are_congruences():
    S = b2()
    assert is_congruence(S, Relation.identity(S.size))
    assert is_congruence(S, Relation.universal(S.size))


def test_arbitrary_partition_need_not_be_congruence():
    S = b2()
    R = Relation.from_blocks(S.size, [(0, 3), (1,), (2,), (4,)])
    assert not is_congruence(S, R)
    with pytest.raises(NotACongruence):
        quotient(S, R)


def test_mu_of_group_is_universal():
    G = validate_inverse_semigroup(Z2_TABLE)
    assert mu_relation(G) == Relation.universal(2)


def test_mu_blocks_of_identity_link_chain():
    S = chain_id()
    assert mu_relation(S).blocks == ((0, 1), (2, 3))


def test_mu_is_idempotent_separating_and_inside_h():
    for table in (B2_TABLE, CHAIN_ID_TABLE, CHAIN_KILL_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        mu = mu_relation(S)
        assert is_idempotent_separating(S, mu)
        from germlab.congruences import h_relation

        assert mu.refines(h_relation(S))


def test_kernel_of_identity_relation_is_idempotents():
    S = b2()
    assert kernel_of(S, Relation.identity(S.size)) == idempotents(S)


def test_kernel_of_universal_on_group_is_whole_group():
    G = validate_inverse_semigroup(Z2_TABLE)
    assert kernel_of(G, Relation.universal(2)) == {0, 1}


def test_kernel_of_mu_equals_centralizer():
    for table in (B2_TABLE, CHAIN_ID_TABLE, CHAIN_KILL_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        assert kernel_of(S, mu_relation(S)) == centralizer(S)


def test_quotient_by_identity_is_isomorphic_copy():
    S = b2()
    q = quotient(S, Relation.identity(S.size))
    assert (q.target.table == S.table).all()


def test_munn_quotient_is_fundamental():
    for table in (B2_TABLE, CHAIN_ID_TABLE, CHAIN_KILL_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        assert is_fundamental(munn_quotient(S).target)


def test_chain_quotient_is_two_chain_semilattice():
    q = munn_quotient(chain_id())
    assert q.target.size == 2
    assert (q.target.table == TWO_CHAIN_SEMILATTICE).all()


def test_cryptic_fundamental_predicates():
    B = b2()
    assert is_cryptic(B) and is_fundamental(B)
    G = validate_inverse_semigroup(Z2_TABLE)
    assert is_cryptic(G) and not is_fundamental(G)
    S = chain_id()
    assert is_cryptic(S) and not is_fundamental(S)


def test_sigma_of_group_is_identity_relation():
    G = validate_inverse_semigroup(Z2_TABLE)
    sigma, q = sigma_and_group_image(G)
    assert sigma == Relation.identity(2)
    assert (q.target.table == G.table).all()


def test_sigma_of_pure_semilattice_gives_trivial_group():
    E = validate_inverse_semigroup(TWO_CHAIN_SEMILATTICE)
    sigma, q = sigma_and_group_image(E)
    assert sigma == Relation.universal(2)
    assert q.target.size == 1


def test_sigma_of_zero_semigroup_is_universal():
    sigma, q = sigma_and_group_image(b2())
    assert sigma == Relation.universal(5)
    assert q.target.size == 1


def test_sigma_of_identity_link_chain_has_order_two_image():
    S = chain_id()
    sigma, q = sigma_and_group_image(S)
    assert sigma.blocks == ((0, 2), (1, 3))
    assert q.target.size == 2


def test_random_idempotent_separating_congruences_refine_mu():
    for table in (B2_TABLE, CHAIN_ID_TABLE, CHAIN_KILL_TABLE):
        S = validate_inverse_semigroup(table)
        mu = mu_relation(S)
        for R in random_idempotent_separating_congruences(S, seed=7):
            assert is_congruence(S, R)
            assert R.refines(mu)


def test_kill_link_chain_is_not_e_unitary():
    from germlab.semigroups import is_e_unitary

    assert is_e_unitary(chain_id())
    assert not is_e_unitary(validate_inverse_semigroup(CHAIN_KILL_TABLE))


def test_split_transversal_of_fundamental_is_identity():
    S = b2()
    r = find_split_transversal(S)
    assert r == tuple(range(S.size))


def test_split_transversal_of_chain_picks_idempotents():
    for table in (CHAIN_ID_TABLE, CHAIN_KILL_TABLE):
        S = validate_inverse_semigroup(table)
        r = find_split_transversal(S)
        assert r == (0, 2)


def test_split_transversal_properties_when_found():
    S = chain_id()
    r = find_split_transversal(S)
    q = munn_quotient(S)
    assert r is not None
    for x in range(q.target.size):
        assert q.projection[r[x]] == x
        for y in range(q.target.size):
            assert S.mul(r[x], r[y]) == r[q.target.mul(x, y)]


def _reference_closure(S, pairs, *, products=True) -> Relation:
    """Pure-Python closure of a set of pairs: the equivalence it generates,
    saturated under multiplication on both sides when ``products`` is set."""
    parent = list(range(S.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        parent[ra] = rb
        return ra != rb

    for a, b in pairs:
        union(a, b)
    changed = products
    while changed:
        changed = False
        for a in S.elements():
            for b in S.elements():
                if find(a) == find(b):
                    for c in S.elements():
                        changed |= union(S.mul(c, a), S.mul(c, b))
                        changed |= union(S.mul(a, c), S.mul(b, c))
    blocks: dict[int, list[int]] = {}
    for x in S.elements():
        blocks.setdefault(find(x), []).append(x)
    return Relation.from_blocks(S.size, blocks.values())


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_generated_congruence_matches_reference_saturation(name, seed):
    S = builtin(name)
    rng = random.Random(seed)
    pairs = [(rng.randrange(S.size), rng.randrange(S.size))
             for _ in range(rng.randint(1, 3))]
    R = generated_congruence(S, pairs)
    assert R == _reference_closure(S, pairs)
    assert is_congruence(S, R)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_sigma_relation_matches_pairwise_definition(name):
    S = builtin(name)
    pairs = [(s, t) for s in S.elements() for t in S.elements()
             if any(S.mul(s, e) == S.mul(t, e) for e in S.idempotent_set)]
    assert sigma_relation(S) == _reference_closure(S, pairs, products=False)
