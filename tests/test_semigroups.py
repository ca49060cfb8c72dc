import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import germlab
from germlab import semigroups
from germlab.errors import NoInverse, NonUniqueInverse, StructureError, ZeroRequired
from germlab.semigroups import (
    centralizer,
    distinct,
    h_classes,
    is_clifford,
    is_e_unitary,
    is_zero_e_unitary,
    natural_leq,
    normality_defect,
    validate_inverse_semigroup,
)


def compose_partial(f: dict, g: dict) -> dict:
    """f after g, on the largest domain where the chain is defined."""
    return {x: f[g[x]] for x in g if g[x] in f}


def partial_bijections(points):
    """All injective partial maps on `points`, as dicts."""
    from itertools import combinations, permutations

    out = []
    pts = list(points)
    for k in range(len(pts) + 1):
        for dom in combinations(pts, k):
            for img in permutations(pts, k):
                out.append(dict(zip(dom, img)))
    return out


def table_from_maps(maps):
    index = {tuple(sorted(m.items())): i for i, m in enumerate(maps)}
    n = len(maps)
    table = np.zeros((n, n), dtype=int)
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            table[i, j] = index[tuple(sorted(compose_partial(f, g).items()))]
    return table


# Oracle: the five-element Brandt semigroup as partial bijections of {0,1}.
B2_MAPS = [{}, {0: 0}, {1: 1}, {0: 1}, {1: 0}]
B2_TABLE = table_from_maps(B2_MAPS)

Z2_TABLE = [[0, 1], [1, 0]]


def test_cyclic_group_is_valid_with_identity_inverse_map():
    S = validate_inverse_semigroup(Z2_TABLE)
    assert S.inv == (0, 1)
    assert S.zero is None


def test_symmetric_inverse_monoid_on_two_points_from_oracle():
    maps = partial_bijections([0, 1])
    assert len(maps) == 7
    S = validate_inverse_semigroup(table_from_maps(maps))
    assert S.size == 7
    # the empty map is the zero
    assert S.zero is not None


def test_left_zero_table_has_non_unique_inverses():
    with pytest.raises(NonUniqueInverse) as err:
        validate_inverse_semigroup([[0, 0], [1, 1]])
    assert (err.value.element, err.value.witnesses) == (0, (0, 1))


def test_null_table_element_has_no_inverse():
    # a.a = 0 and everything else is 0: s t s = 0 for every t, so a has no inverse
    with pytest.raises(NoInverse) as err:
        validate_inverse_semigroup([[0, 0], [0, 0]])
    assert err.value.element == 1


def _reference_inverse_witnesses(table, s):
    n = len(table)
    return [t for t in range(n) if table[table[s][t]][s] == s and table[table[t][s]][t] == t]


def _first_inverse_error(table):
    """What the pairwise loop raises: the first s in element order without
    exactly one inverse, with its ascending witnesses; None if there is none."""
    for s in range(len(table)):
        witnesses = _reference_inverse_witnesses(table, s)
        if len(witnesses) != 1:
            return (NonUniqueInverse, s, tuple(witnesses)) if witnesses else (NoInverse, s, None)
    return None


def _assert_inverse_search_equals_the_loop(table):
    """The search itself, not the validator: edited tables need not be
    associative, and Light's test runs before the search."""
    expected = _first_inverse_error(table)
    if expected is None:
        inv = semigroups._inverses(np.array(table))
        assert list(inv) == [_reference_inverse_witnesses(table, s)[0] for s in range(len(table))]
        return
    kind, element, witnesses = expected
    with pytest.raises(kind) as err:
        semigroups._inverses(np.array(table))
    assert (err.value.element, getattr(err.value, "witnesses", None)) == (element, witnesses)


def _edited(table, edits):
    table = [list(row) for row in table]
    for (i, j), x in edits.items():
        table[i][j] = x
    return table


SYM2 = table_from_maps(partial_bijections([0, 1])).tolist()


@pytest.mark.parametrize("chunk", [1, 7 * 3, semigroups.CHUNK_ENTRIES])
@pytest.mark.parametrize("table", (
    [[0, 0], [1, 1]], [[0, 0], [0, 0]], [[0, 1], [1, 1]], [[1, 0, 2], [0, 1, 2], [2, 2, 2]],
    SYM2,
    # the symmetric inverse monoid on two points with entries edited so that
    # several rows are defective
    _edited(SYM2, {(2, 3): 0, (5, 5): 0}),              # rows 2, 3 and 5 have no inverse
    _edited(SYM2, {(5, 5): 0, (6, 6): 0}),              # rows 5 and 6, in two chunks of 3
    _edited(SYM2, {(1, 1): 0, (2, 2): 2}),              # row 1 has none, row 2 has two
    _edited(SYM2, {(4, 2): 0, (6, 0): 6, (6, 6): 6}),   # rows 0, 6 have two, 2, 3 none
))
def test_inverse_search_reports_the_witnesses_of_the_pairwise_search(monkeypatch, chunk, table):
    """Broken tables included: the first element without exactly one inverse,
    with its ascending witnesses, as the pairwise loop finds them, searched
    one row per chunk, 3 rows of SYM2 per chunk and all rows at once."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", chunk)
    _assert_inverse_search_equals_the_loop(table)


def test_inverse_search_on_random_tables_equals_the_loop(monkeypatch):
    """Random tables, most without inverses and some with several, searched
    in chunks of two rows."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 6 * 2)
    rng = np.random.default_rng(3)
    tables = [rng.integers(0, 6, size=(6, 6)).tolist() for _ in range(200)]
    for table in tables:
        _assert_inverse_search_equals_the_loop(table)
    kinds = {(_first_inverse_error(t) or (None,))[0] for t in tables}
    assert {NoInverse, NonUniqueInverse} <= kinds


@pytest.mark.parametrize("maps", [[0, 1], [0, 1, 2]])
def test_zero_is_the_first_element_absorbing_on_both_sides(maps):
    """The zero of a symmetric inverse monoid, with its rows permuted so that
    it is neither first nor last, against the loop over candidates."""
    table = table_from_maps(partial_bijections(maps))
    n = len(table)
    perm = np.roll(np.arange(n), n // 2)
    relabeled = np.argsort(perm)[table[np.ix_(perm, perm)]]
    S = validate_inverse_semigroup(relabeled)
    loop = next(z for z in range(n)
                if (relabeled[z, :] == z).all() and (relabeled[:, z] == z).all())
    assert S.zero == loop and 0 < S.zero < n - 1


def test_ragged_or_out_of_range_tables_rejected():
    with pytest.raises(StructureError):
        validate_inverse_semigroup([[0, 1], [2, 0]])
    with pytest.raises(StructureError):
        validate_inverse_semigroup(np.zeros((2, 3), dtype=int))


@pytest.mark.parametrize("entry", [10**23, 2**63, -(10**23), -1, 2])
def test_entries_past_int64_are_out_of_range(entry):
    with pytest.raises(StructureError, match="^table entries out of range$"):
        validate_inverse_semigroup([[0, entry], [0, 0]])


def test_b2_idempotents():
    S = validate_inverse_semigroup(B2_TABLE)
    assert S.idempotent_array.tolist() == [0, 1, 2]
    assert S.idempotent_mask.tolist() == [True, True, True, False, False]
    assert S.idempotent_set == {0, 1, 2}


def test_group_has_single_idempotent():
    S = validate_inverse_semigroup(Z2_TABLE)
    assert S.idempotent_array.tolist() == [0]
    assert S.idempotent_set == {0}


def test_natural_leq_reflexive_and_zero_below_everything():
    S = validate_inverse_semigroup(B2_TABLE)
    for s in S.elements():
        assert natural_leq(S, s, s)
        assert natural_leq(S, 0, s)  # 0 = s * 0


def test_natural_leq_is_partial_order_exhaustively():
    S = validate_inverse_semigroup(B2_TABLE)
    n = S.size
    for a in range(n):
        for b in range(n):
            if natural_leq(S, a, b) and natural_leq(S, b, a):
                assert a == b
            for c in range(n):
                if natural_leq(S, a, b) and natural_leq(S, b, c):
                    assert natural_leq(S, a, c)


def lower_intersection_generators(S, s, t):
    """The maximal elements of the common lower set of s and t."""
    common = frozenset(np.flatnonzero(S.leq[:, s] & S.leq[:, t]).tolist())
    return frozenset(x for x in common if not any(y != x and S.leq[x, y] for y in common))


def test_lower_intersection_of_idempotents_is_their_meet():
    S = validate_inverse_semigroup(B2_TABLE)
    for e in S.idempotent_array.tolist():
        for f in S.idempotent_array.tolist():
            assert lower_intersection_generators(S, e, f) == {S.mul(e, f)}


def test_lower_intersection_of_element_with_itself():
    S = validate_inverse_semigroup(B2_TABLE)
    for s in S.elements():
        assert lower_intersection_generators(S, s, s) == {s}


def test_b2_h_classes_are_singletons():
    S = validate_inverse_semigroup(B2_TABLE)
    assert h_classes(S) == ((0,), (1,), (2,), (3,), (4,))


def test_group_is_one_h_class():
    S = validate_inverse_semigroup(Z2_TABLE)
    assert h_classes(S) == ((0, 1),)


def test_h_class_of_idempotent_is_a_group():
    S = validate_inverse_semigroup(B2_TABLE)
    for e in S.idempotent_array.tolist():
        block = next(b for b in h_classes(S) if e in b)
        for a in block:
            assert S.mul(e, a) == a == S.mul(a, e)
            assert S.mul(a, S.inv[a]) == e
            for b in block:
                assert S.mul(a, b) in block


def test_clifford_predicates():
    assert is_clifford(validate_inverse_semigroup(Z2_TABLE))
    assert not is_clifford(validate_inverse_semigroup(B2_TABLE))


def test_e_unitary_group_true_b2_false_but_zero_variant_true():
    G = validate_inverse_semigroup(Z2_TABLE)
    B = validate_inverse_semigroup(B2_TABLE)
    assert is_e_unitary(G)
    assert not is_e_unitary(B)  # 0 sits below the non-idempotents
    assert is_zero_e_unitary(B)
    with pytest.raises(ZeroRequired):
        is_zero_e_unitary(G)


def test_centralizer_of_group_is_whole_group():
    G = validate_inverse_semigroup(Z2_TABLE)
    assert centralizer(G).all()


def test_centralizer_contains_idempotents_and_is_normal():
    S = validate_inverse_semigroup(B2_TABLE)
    Z = centralizer(S)
    assert Z[S.idempotent_array].all()
    assert normality_defect(S, Z) is None


def test_clifford_iff_centralizer_is_everything():
    for table in (Z2_TABLE, B2_TABLE):
        S = validate_inverse_semigroup(table)
        assert is_clifford(S) == centralizer(S).all()


def test_distinct_equals_np_unique():
    rng = np.random.default_rng(5)
    for shape in ((0,), (1,), (7,), (40, 3), (5, 0)):
        values = rng.integers(-3, 9, size=shape)
        assert np.array_equal(distinct(values), np.unique(values))


def test_a_suite_run_does_not_import_numpy_ma():
    """``distinct`` replaces ``np.unique``, whose first plain call imports
    ``numpy.ma`` (11-15 ms of every process that runs a suite)."""
    code = ("import sys; from germlab.builtins import builtin; "
            "from germlab.suites import run_suite; "
            "run_suite('symmetric:3', builtin('symmetric:3'), 'all'); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(germlab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
