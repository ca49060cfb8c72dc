import dataclasses
import zlib

import numpy as np
import pytest

from germlab import semigroups
from germlab.actions import centralizer_germs, germ_groupoid, tight_action, universal_action
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.errors import SearchBudgetExceeded, StructureError
from germlab.extensions import semidirect_factors
from germlab.groupoids import (
    Cuts,
    FiniteGroupoid,
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
    make_groupoid,
    subgroupoid_properties,
    validate_groupoid,
)
from germlab.semigroups import h_class_of, validate_inverse_semigroup

from test_actions import diamond_munn
from test_congruences import CHAIN_ID_TABLE
from test_semigroups import B2_TABLE, Z2_TABLE


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The full equivalence relation on n points: arrow i n + j is (i <- j)."""
    i, j = np.divmod(np.arange(n * n), n)
    table = np.where(j[:, None] == i, i[:, None] * n + j, -1)
    labels = tuple(f"({a}<-{b})" for a, b in zip(i.tolist(), j.tolist()))
    return make_groupoid(i * (n + 1), j * (n + 1), j * n + i, table, labels)


Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_pair_groupoid_isotropy_is_units():
    G = pair_groupoid(2)
    validate_groupoid(G)
    assert np.array_equal(iso_bundle(G), G.unit_mask)
    assert np.array_equal(iso_interior(G), G.unit_mask)
    assert not is_group_bundle(G)
    assert is_effective(G)
    assert is_essentially_principal(G)


def test_group_groupoid_is_a_group_bundle():
    G = group_as_groupoid(Z2_TABLE)
    assert is_group_bundle(G)
    assert iso_bundle(G).all()


def test_diamond_swap_germ_lies_in_isotropy_interior():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    G = germs.groupoid
    iso = iso_bundle(G)
    inner = iso_interior(G)
    assert np.array_equal(inner, iso)
    assert np.count_nonzero(iso) == len(G.units) + 1
    witness = np.flatnonzero(inner & ~G.unit_mask).tolist()
    assert len(witness) == 1
    # the non-unit interior arrow is certified by an isolating basis set
    wit_arrow = witness[0]
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
    for e in S.idempotent_array.tolist():
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
    props = subgroupoid_properties(G, G.unit_mask)
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
    sub, order = extract_subgroupoid(G, G.unit_mask)
    assert sub.n_arrows == 2
    assert order.tolist() == list(G.units)
    with pytest.raises(StructureError):
        extract_subgroupoid(G, np.array([True, True, False, False]))
    whole, order = extract_subgroupoid(G, np.ones(G.n_arrows, dtype=bool))
    assert whole is G and order.tolist() == list(G.arrows())


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
    """Over the unit bundle every arrow g factors as r(g) g."""
    G = pair_groupoid(2)
    factors = semidirect_factors(G, G.unit_mask, np.ones(G.n_arrows, dtype=bool))
    assert factors.tolist() == [[G.r[g], g] for g in G.arrows()]


def test_semidirect_with_unit_g_recovers_h():
    """Over the units as complement every arrow g factors as g d(g)."""
    G = group_as_groupoid(Z2_TABLE)
    factors = semidirect_factors(G, np.ones(G.n_arrows, dtype=bool), G.unit_mask)
    assert factors.tolist() == [[g, G.d[g]] for g in G.arrows()]


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
# a basis with no sets: no rows and no point sets over one point
NO_CUTS = Cuts(np.zeros((0, 1), dtype=np.intp), np.zeros((0, 1), dtype=bool), (), (), "{}")
LOOP_GROUPOID = FiniteGroupoid(7, np.zeros(7, dtype=np.intp), np.zeros(7, dtype=np.intp),
                               np.array([0, 2, 1, 4, 3, 6, 5]), np.array(IP_LOOP),
                               (0,), tuple(f"l{a}" for a in range(7)), NO_CUTS)


BAD_CUTS = "basis must be labeled integer rows and labeled boolean sets over one set of points"


def edited_table(table, entries):
    """A copy of a composition table with the given [g, h] entries replaced."""
    out = table.copy()
    for (g, h), gh in entries.items():
        out[g, h] = gh
    return out


BROKEN_AXIOMS = [
    (GROUP_Z2, {"table": edited_table(GROUP_Z2.table, {(0, 0): 1})}, "unit 0 fails u = u.u = u^-1"),
    (GROUP_Z2, {"inv": np.array([1, 1])}, "unit 0 fails u = u.u = u^-1"),
    (PAIR2, {"r": np.array([3, 0, 3, 3])}, "unit 0 is not its own range/source"),
    (PAIR2, {"units": (0,)}, "range/source of arrow 1 is not a unit"),
    (PAIR2, {"inv": np.array([0, 1, 1, 3])}, "arrow 1: a.a^-1 is not r(a)"),
    (PAIR2, {"table": edited_table(PAIR2.table, {(2, 1): 0})}, "arrow 1: a^-1.a is not d(a)"),
    (PAIR2, {"table": edited_table(PAIR2.table, {(0, 3): 0})},
     "composition defined on non-composable (0,3)"),
    (PAIR2, {"table": edited_table(PAIR2.table, {(0, 1): 0})}, "composition (0,1) breaks range/source"),
    (PAIR2, {"table": edited_table(PAIR2.table, {(0, 1): -1})}, "composability mismatch at (0,1)"),
    (GROUP_Z2, {"table": edited_table(GROUP_Z2.table, {(0, 1): 0})}, "inverse laws fail at (0,1)"),
    (LOOP_GROUPOID, {}, "associativity fails at (1,1,3)"),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, sets=np.ones((1, 5), dtype=bool))}, BAD_CUTS),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, row_labels=PAIR2.cuts.row_labels[1:])},
     BAD_CUTS),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, set_labels=())}, BAD_CUTS),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, sets=PAIR2.cuts.sets.astype(np.intp))},
     BAD_CUTS),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, rows=PAIR2.cuts.rows.astype(bool))},
     BAD_CUTS),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, rows=PAIR2.cuts.rows[:, 0])}, BAD_CUTS),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, rows=PAIR2.cuts.rows + 1)},
     "basis row entry out of range"),
    (PAIR2, {"cuts": dataclasses.replace(PAIR2.cuts, rows=PAIR2.cuts.rows - 2)},
     "basis row entry out of range"),
]


@pytest.mark.parametrize("G,fields,message", BROKEN_AXIOMS)
def test_validate_groupoid_names_the_broken_axiom(G, fields, message):
    broken = dataclasses.replace(G, **fields)
    with pytest.raises(StructureError) as err:
        validate_groupoid(broken)
    assert str(err.value) == message
    if not message.startswith("basis"):
        assert _reference_axioms(broken) == message


@pytest.mark.parametrize("G,fields,message", BROKEN_AXIOMS)
def test_one_pair_per_chunk_names_the_broken_axiom(monkeypatch, G, fields, message):
    """The cases above with ``CHUNK_ENTRIES`` at 1, so that the
    associativity scan takes one composable pair per chunk: the chunk size
    changes no witness."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 1)
    test_validate_groupoid_names_the_broken_axiom(G, fields, message)


def _reference_axioms(G) -> str | None:
    """The groupoid axioms as loops over Python lists, in the documented
    witness order of ``validate_groupoid``: the first failure's message, or
    None when every axiom holds."""
    n = G.n_arrows
    r, d, inv, t = G.r.tolist(), G.d.tolist(), G.inv.tolist(), G.table.tolist()
    units = set(G.units)
    for u in G.units:
        if t[u][u] != u or inv[u] != u:
            return f"unit {u} fails u = u.u = u^-1"
        if r[u] != u or d[u] != u:
            return f"unit {u} is not its own range/source"
    for a in range(n):
        if r[a] not in units or d[a] not in units:
            return f"range/source of arrow {a} is not a unit"
        if t[a][inv[a]] != r[a]:
            return f"arrow {a}: a.a^-1 is not r(a)"
        if t[inv[a]][a] != d[a]:
            return f"arrow {a}: a^-1.a is not d(a)"
    for g in range(n):
        for h in range(n):
            gh = t[g][h]
            if gh >= 0 and d[g] != r[h]:
                return f"composition defined on non-composable ({g},{h})"
            if gh >= 0 and (r[gh] != r[g] or d[gh] != d[h]):
                return f"composition ({g},{h}) breaks range/source"
    for g in range(n):
        for h in range(n):
            if d[g] == r[h] and t[g][h] < 0:
                return f"composability mismatch at ({g},{h})"
    for g in range(n):
        for h in range(n):
            gh = t[g][h]
            if gh >= 0 and (t[inv[g]][gh] != h or t[gh][inv[h]] != g):
                return f"inverse laws fail at ({g},{h})"
    for g in range(n):
        for h in range(n):
            if t[g][h] >= 0:
                for k in range(n):
                    if t[h][k] >= 0 and t[t[g][h]][k] != t[g][t[h][k]]:
                        return f"associativity fails at ({g},{h},{k})"
    return None


def test_associativity_batches_keep_the_row_major_witness(monkeypatch):
    """PAIR2 beside a copy of the loop (arrows 4..10 on unit 4), scanned one
    composable pair per chunk: the loop's failure comes in a later chunk
    than the first and keeps its row-major witness."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 1)
    n = 4 + 7
    table = np.full((n, n), -1, dtype=np.intp)
    table[:4, :4] = PAIR2.table
    table[4:, 4:] = LOOP_GROUPOID.table + 4
    loop = np.full(7, 4)
    G = FiniteGroupoid(n, np.concatenate((PAIR2.r, loop)), np.concatenate((PAIR2.d, loop)),
                       np.concatenate((PAIR2.inv, LOOP_GROUPOID.inv + 4)), table, (0, 3, 4),
                       tuple(f"a{a}" for a in range(n)), NO_CUTS)
    assert _reference_axioms(G) == "associativity fails at (5,5,7)"
    with pytest.raises(StructureError) as err:
        validate_groupoid(G)
    assert str(err.value) == "associativity fails at (5,5,7)"


def _single_entry_corruptions(G, rng, per_field):
    """Copies of G with one entry of its table, r, d or inv replaced by
    another in-range value, per_field of each, drawn from rng."""
    n = G.n_arrows
    for field in ("table", "r", "d", "inv"):
        low = -1 if field == "table" else 0
        span = n - low              # the number of in-range values
        for _ in range(per_field if span > 1 else 0):
            values = getattr(G, field).copy()
            at = tuple(rng.integers(n, size=values.ndim))
            values[at] = low + (values[at] - low + rng.integers(1, span)) % span
            yield dataclasses.replace(G, **{field: values})


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_validate_groupoid_matches_the_axiom_loops_on_corruptions(name):
    S = builtin(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for action in (universal_action(S), tight_action(S)):
        G = germ_groupoid(action).groupoid
        assert _reference_axioms(G) is None
        validate_groupoid(G)
        for broken in _single_entry_corruptions(G, rng, 8):
            try:
                validate_groupoid(broken)
                message = None
            except StructureError as exc:
                message = str(exc)
            assert message == _reference_axioms(broken)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_one_pair_per_chunk_matches_the_axiom_loops_on_corruptions(monkeypatch, name):
    """The sweep above with ``CHUNK_ENTRIES`` at 1 gives the same messages:
    an associativity failure found in a later chunk keeps its row-major
    witness, and both uncorrupted groupoids pass."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 1)
    test_validate_groupoid_matches_the_axiom_loops_on_corruptions(name)


def test_make_groupoid_rejects_a_malformed_table():
    with pytest.raises(StructureError, match="must cover 2 arrows"):
        make_groupoid((0, 1), (0, 1), (0, 1), [[0, -1, -1], [-1, 1, -1]])
    with pytest.raises(StructureError, match="composition table entry out of range"):
        make_groupoid((0, 1), (0, 1), (0, 1), [[0, -1], [-1, 2]])
    with pytest.raises(StructureError, match="composition table entry out of range"):
        make_groupoid((0, 1), (0, 1), (0, 1), [[0, -2], [-1, 1]])


def test_make_groupoid_accepts_the_empty_groupoid():
    """No arrows satisfy every axiom vacuously: the empty groupoid builds,
    with no units, no orbit blocks and the zero function's norm 0.0, and
    its C*-identity certificate passes."""
    from germlab import algebra

    G = make_groupoid([], [], [], np.zeros((0, 0)))
    assert (G.n_arrows, G.units, G.fiber_stacks) == (0, (), ())
    f = algebra.GroupoidFunction(G, np.zeros(0))
    assert algebra.reduced_norm(G, f) == 0.0
    assert algebra.convolve(f, f).values.shape == (0,)
    assert algebra.star_representation_defect(G) is None
