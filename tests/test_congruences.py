import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germlab import congruences, semigroups
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.congruences import (
    TRANSVERSAL_BUDGET,
    Relation,
    congruence_witness,
    find_split_transversal,
    is_fundamental,
    kernel_of,
    mu_relation,
    quotient,
    random_idempotent_separating_congruences,
    sigma_and_group_image,
    sigma_relation,
    transversal_defect,
)
from germlab.errors import NotACongruence, SearchBudgetExceeded
from germlab.semigroups import centralizer, validate_inverse_semigroup

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
    assert congruence_witness(S, Relation(np.arange(S.size))) is None
    assert congruence_witness(S, Relation(np.zeros(S.size, dtype=int))) is None


def test_arbitrary_partition_need_not_be_congruence():
    S = b2()
    R = Relation([0, 1, 2, 0, 3])
    assert congruence_witness(S, R) is not None
    with pytest.raises(NotACongruence):
        quotient(S, R)


def test_mu_of_group_is_universal():
    G = validate_inverse_semigroup(Z2_TABLE)
    assert mu_relation(G) == Relation(np.zeros(2, dtype=int))


def test_mu_blocks_of_identity_link_chain():
    S = chain_id()
    assert mu_relation(S).blocks == ((0, 1), (2, 3))


def test_mu_is_idempotent_separating_and_inside_h():
    for table in (B2_TABLE, CHAIN_ID_TABLE, CHAIN_KILL_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        mu = mu_relation(S)
        assert np.unique(mu.labels[S.idempotent_array]).size == S.idempotent_array.size
        assert Relation(np.stack((mu.labels, S.h_partition.labels), axis=1)) == mu


def test_kernel_of_identity_relation_is_idempotents():
    S = b2()
    assert np.array_equal(kernel_of(S, Relation(np.arange(S.size))), S.idempotent_mask)


def test_kernel_of_universal_on_group_is_whole_group():
    G = validate_inverse_semigroup(Z2_TABLE)
    assert np.flatnonzero(kernel_of(G, Relation(np.zeros(2, dtype=int)))).tolist() == [0, 1]


def test_kernel_of_mu_equals_centralizer():
    for table in (B2_TABLE, CHAIN_ID_TABLE, CHAIN_KILL_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        assert np.array_equal(kernel_of(S, mu_relation(S)), centralizer(S))


def test_quotient_by_identity_is_isomorphic_copy():
    S = b2()
    q = quotient(S, Relation(np.arange(S.size)))
    assert (q.target.table == S.table).all()


def test_munn_quotient_is_fundamental():
    for table in (B2_TABLE, CHAIN_ID_TABLE, CHAIN_KILL_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        assert is_fundamental(quotient(S, mu_relation(S)).target)


def test_chain_quotient_is_two_chain_semilattice():
    S = chain_id()
    q = quotient(S, mu_relation(S))
    assert q.target.size == 2
    assert (q.target.table == TWO_CHAIN_SEMILATTICE).all()


def test_cryptic_fundamental_predicates():
    B = b2()
    assert mu_relation(B) == B.h_partition and is_fundamental(B)
    G = validate_inverse_semigroup(Z2_TABLE)
    assert mu_relation(G) == G.h_partition and not is_fundamental(G)
    S = chain_id()
    assert mu_relation(S) == S.h_partition and not is_fundamental(S)


def test_sigma_of_group_is_identity_relation():
    G = validate_inverse_semigroup(Z2_TABLE)
    sigma, q = sigma_and_group_image(G)
    assert sigma == Relation(np.arange(2))
    assert (q.target.table == G.table).all()


def test_sigma_of_pure_semilattice_gives_trivial_group():
    E = validate_inverse_semigroup(TWO_CHAIN_SEMILATTICE)
    sigma, q = sigma_and_group_image(E)
    assert sigma == Relation(np.zeros(2, dtype=int))
    assert q.target.size == 1


def test_sigma_of_zero_semigroup_is_universal():
    sigma, q = sigma_and_group_image(b2())
    assert sigma == Relation(np.zeros(5, dtype=int))
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
            assert congruence_witness(S, R) is None
            assert Relation(np.stack((R.labels, mu.labels), axis=1)) == R


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
    q = quotient(S, mu_relation(S))
    assert r is not None
    for x in range(q.target.size):
        assert q.projection[r[x]] == x
        for y in range(q.target.size):
            assert S.mul(r[x], r[y]) == r[q.target.mul(x, y)]


def generated_congruence(S, pairs) -> Relation:
    """The smallest congruence relating every given pair, by ``_saturate``."""
    [root] = congruences._saturate(S, [pairs])
    return Relation(root)


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
    return Relation([find(x) for x in S.elements()])


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
    assert congruence_witness(S, R) is None


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_sigma_relation_matches_pairwise_definition(name):
    S = builtin(name)
    pairs = [(s, t) for s in S.elements() for t in S.elements()
             if any(S.mul(s, e) == S.mul(t, e) for e in S.idempotent_set)]
    assert sigma_relation(S) == _reference_closure(S, pairs, products=False)


def _reference_split_transversal(S):
    """The pure-Python backtracking search that find_split_transversal replaced."""
    mu = mu_relation(S)
    q = quotient(S, mu)
    target = q.target
    choices = []
    for block in mu.blocks:
        block_idems = [x for x in block if x in S.idempotent_set]
        choices.append(block_idems if block_idems else list(block))
    budget = 1
    for c in choices:
        budget *= len(c)
        if budget > TRANSVERSAL_BUDGET:
            raise SearchBudgetExceeded("budget")
    k = len(mu.blocks)
    pick = [None] * k

    def consistent(i):
        decided = [j for j in range(k) if pick[j] is not None]
        for j in decided:
            for a, b in ((i, j), (j, i)):
                p = target.mul(a, b)
                if pick[p] is not None and S.mul(pick[a], pick[b]) != pick[p]:
                    return False
        for a in decided:
            for b in decided:
                if target.mul(a, b) == i and S.mul(pick[a], pick[b]) != pick[i]:
                    return False
        return True

    def backtrack(i):
        if i == k:
            return True
        for cand in choices[i]:
            pick[i] = cand
            if consistent(i) and backtrack(i + 1):
                return True
            pick[i] = None
        return False

    return tuple(pick) if backtrack(0) else None


def _transversal_outcome(search, S):
    try:
        return search(S)
    except SearchBudgetExceeded:
        return "budget"


@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4",))
def test_split_transversal_matches_reference_backtracking(name):
    S = builtin(name)
    found = _transversal_outcome(find_split_transversal, S)
    assert found == _transversal_outcome(_reference_split_transversal, S)
    if isinstance(found, tuple):
        assert all(type(x) is int for x in found)


def test_transversal_defect_reports_the_first_class_or_pair():
    S = chain_id()
    q = quotient(S, mu_relation(S))
    assert transversal_defect(S, q, (0, 2)) is None
    assert transversal_defect(S, q, (2, 2)) == (0, None)     # 2 lies in class 1
    assert transversal_defect(S, q, (1, 2)) == (0, 0)        # u u = e is not u


def test_transversal_defect_skips_undecided_classes():
    """-1 marks an undecided class: it is not tested, and neither is any
    constraint r(x) r(y) = r(xy) that involves it."""
    S = chain_id()
    q = quotient(S, mu_relation(S))
    assert transversal_defect(S, q, (-1, -1)) is None
    assert transversal_defect(S, q, (-1, 2)) is None
    assert transversal_defect(S, q, (3, -1)) == (0, None)    # 3 lies in class 1
    assert transversal_defect(S, q, (1, -1)) == (0, 0)
    assert transversal_defect(S, q, (-1, 3)) == (1, 1)       # (eu)(eu) = e is not eu


def _reference_transversal_defect(S, q, r):
    """The row-by-row scan that the chunked comparison replaced, -1 undecided."""
    for x, rx in enumerate(r):
        if rx < 0:
            continue
        if q.projection[rx] != x:
            return (x, None)
        for y, ry in enumerate(r):
            want = r[q.target.mul(x, y)]
            if ry >= 0 and want >= 0 and S.mul(rx, ry) != want:
                return (x, y)
    return None


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4",))
def test_transversal_defect_matches_the_row_scan(name, chunk, monkeypatch):
    """Seeded assignments: each class undecided, a member of its block or any
    element, so every kind of witness occurs; chunk 7 splits the rows."""
    if chunk is not None:
        monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", chunk)
    S = builtin(name)
    mu = mu_relation(S)
    q = quotient(S, mu)
    rng = random.Random(name)
    for _ in range(20):
        weights = [rng.random() for _ in range(3)]
        r = tuple(rng.choices([-1, rng.choice(block), rng.randrange(S.size)], weights)[0]
                  for block in mu.blocks)
        assert transversal_defect(S, q, r) == _reference_transversal_defect(S, q, r), r


def _monomial_closure(n, m, generators):
    """Partial bijections of n points carrying Z_m labels, closed under products
    and inverses, as a validated semigroup.

    An element is a tuple giving, per point, None or (image, label); labels add
    along a composite.
    """
    def mul(a, b):          # a after b
        return tuple(None if b[x] is None or a[b[x][0]] is None
                     else (a[b[x][0]][0], (b[x][1] + a[b[x][0]][1]) % m)
                     for x in range(n))

    def inv(a):
        out = [None] * n
        for x, v in enumerate(a):
            if v is not None:
                out[v[0]] = (x, -v[1] % m)
        return tuple(out)

    elems = set(generators) | {inv(g) for g in generators}
    frontier = list(elems)
    while frontier:
        new = []
        for a in list(elems):
            for b in frontier:
                for c in (mul(a, b), mul(b, a)):
                    if c not in elems:
                        elems.add(c)
                        new.append(c)
        frontier = new
    order = sorted(elems, key=repr)
    index = {e: i for i, e in enumerate(order)}
    return validate_inverse_semigroup([[index[mul(a, b)] for b in order] for a in order])


def _labelled_shift(n, labels, m):
    """The cyclic shift of n points with the given labels, and the partial
    identity on point 0.  Depending on the labels the extension by S/mu splits
    at the first candidates, splits only after backtracking, or does not split."""
    shift = tuple(((x + 1) % n, labels[x]) for x in range(n))
    return _monomial_closure(n, m, [shift, ((0, 0),) + (None,) * (n - 1)])


def _relabelled(S, seed):
    """S with its elements renumbered by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(S.size)
    table = np.empty_like(S.table)
    table[np.ix_(perm, perm)] = perm[S.table]
    return validate_inverse_semigroup(table)


def test_split_transversal_matches_reference_on_labelled_shifts():
    kinds = set()
    for n, m in itertools.product((2, 3), (2, 3, 4)):
        for labels in itertools.product(range(m), repeat=2):
            S = _labelled_shift(n, labels + (0,) * (n - 2), m)
            found = _transversal_outcome(find_split_transversal, S)
            assert found == _transversal_outcome(_reference_split_transversal, S)
            mu = mu_relation(S)
            first = tuple(min(b, key=lambda x: x not in S.idempotent_set) for b in mu.blocks)
            kinds.add("none" if found is None else "first" if found == first else "backtracked")
    assert kinds == {"none", "first", "backtracked"}


@pytest.mark.parametrize("m", (2, 3, 5))
def test_split_transversal_matches_reference_under_relabelling(m):
    """Rank-one maps of 2 points with Z_m labels (a Brandt semigroup): every
    label g on 0 -> 1 gives a transversal, so candidate order picks the answer."""
    S = _monomial_closure(2, m, [((1, 0), None), ((1, 1), None), ((0, 0), None)])
    found = set()
    for seed in range(8):
        T = _relabelled(S, seed)
        r = find_split_transversal(T)
        assert r == _reference_split_transversal(T)
        found.add(frozenset(r))
    assert len(found) > 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_quotient_by_the_identity_is_the_validated_semigroup(name):
    S = builtin(name)
    T = quotient(S, Relation(np.arange(S.size))).target
    reference = validate_inverse_semigroup(S.table.copy(), T.labels)
    assert T.table is S.table
    assert (T.inv, T.zero) == (reference.inv, reference.zero)
    assert T.labels == tuple("{" + S.label(x) + "}" for x in S.elements())


def test_split_transversal_searches_past_the_recursion_limit():
    """A fundamental chain with more mu-classes than the recursion limit:
    the identity is the transversal.  The chain is built directly, with the
    identity relation and quotient, so no validation or mu computation runs."""
    from germlab.congruences import QuotientMap, split_transversal
    from germlab.semigroups import InverseSemigroup

    n = 1001
    chain = np.minimum.outer(np.arange(n), np.arange(n))
    S = InverseSemigroup(chain, tuple(range(n)), 0, tuple(map(str, range(n))))
    r = split_transversal(S, Relation(np.arange(n)), QuotientMap(S, S, tuple(range(n))))
    assert r == tuple(range(n))
