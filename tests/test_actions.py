import random

import numpy as np
import pytest

from germlab import extensions
from germlab.actions import (
    Action,
    DirectedGraph,
    action_kernel,
    centralizer_germs,
    domains_form_base,
    germ_equivalence_is_equivalence,
    germ_groupoid,
    graph_inverse_semigroup,
    induced_subgroupoid,
    spectrum_action,
    tight_action,
    universal_action,
    validate_action,
)
from germlab.builtins import CORPUS_NAMES, NAMED_GRAPHS, builtin
from germlab.errors import (
    CyclicGraph,
    DomainMismatch,
    NotCovering,
    NotHomomorphism,
    NotSubsemigroup,
    StructureError,
)
from germlab.semigroups import centralizer, validate_inverse_semigroup
from germlab.semilattices import (
    is_zero_disjunctive,
    munn_semigroup,
    semilattice_of,
    spectrum_points,
    validate_semilattice,
)

from test_congruences import CHAIN_ID_TABLE
from test_semigroups import B2_TABLE, Z2_TABLE
from test_semilattices import DIAMOND_LABELS, DIAMOND_MEET


def diamond_munn():
    return munn_semigroup(validate_semilattice(DIAMOND_MEET, labels=DIAMOND_LABELS))


def labeled_sets(sets, labels):
    """A basis catalog of boolean rows as (label, members) pairs, the form
    the reference loops build."""
    return tuple((label, frozenset(np.flatnonzero(row).tolist()))
                 for label, row in zip(labels, sets))


def cut_catalog(G):
    """G's basis sets as (label, members) pairs, read off its cuts one by
    one in row-major order: each set once, under its first cut's label."""
    cuts, catalog = G.cuts, {}
    for s, j in zip(*np.nonzero(cuts.nonempty)):
        members = frozenset(cuts.rows[s][cuts.sets[j] & cuts.member[s]].tolist())
        catalog.setdefault(members, cuts.label(s, j))
    return tuple((label, members) for members, label in catalog.items())


def translation_action(table):
    S = validate_inverse_semigroup(table)
    maps = [[S.mul(g, x) for x in S.elements()] for g in S.elements()]
    return validate_action(S, S.size, maps)


def test_group_translation_action_is_valid():
    action = translation_action(Z2_TABLE)
    assert action.space_size == 2


def test_validate_action_rejects_wrong_domains():
    S = validate_inverse_semigroup(Z2_TABLE)
    # identity acts everywhere but the other element acts nowhere
    maps = [[0, 1], [-1, -1]]
    with pytest.raises(DomainMismatch):
        validate_action(S, 2, maps)


@pytest.mark.parametrize("bad", (2, -2))
def test_validate_action_rejects_images_outside_the_space(bad):
    S = validate_inverse_semigroup(Z2_TABLE)
    maps = [[0, 1], [1, bad]]
    with pytest.raises(StructureError, match="map of element 1 leaves the space"):
        validate_action(S, 2, maps)


def test_validate_action_rejects_wrong_row_count_and_width():
    S = validate_inverse_semigroup(Z2_TABLE)
    with pytest.raises(StructureError, match="one partial map per element required"):
        validate_action(S, 2, [[0, 1]])
    with pytest.raises(StructureError, match="map of element 0 has wrong length"):
        validate_action(S, 2, [[0, 1, -1], [1, 0, -1]])


def test_validate_action_rejects_a_non_injective_row():
    S = validate_inverse_semigroup(Z2_TABLE)
    with pytest.raises(NotHomomorphism) as err:
        validate_action(S, 2, [[0, 1], [0, 0]])
    assert err.value.pair == (1, 1)


def test_validate_action_requires_covering():
    E = validate_inverse_semigroup([[0]])
    maps = [[0, -1]]
    with pytest.raises(NotCovering):
        validate_action(E, 2, maps)


def test_validate_action_accepts_an_empty_space():
    """Every action condition holds vacuously on no points."""
    action = validate_action(builtin("group:z2"), 0, np.zeros((2, 0), dtype=int))
    assert action.space_size == 0
    assert action.maps.shape == (2, 0)
    assert action.point_labels == ()


def test_universal_action_of_b2_has_singleton_domains():
    S = validate_inverse_semigroup(B2_TABLE)
    beta = universal_action(S)
    assert beta.space_size == 2
    # the two non-idempotents translate between the two singleton domains
    for s in (3, 4):
        assert np.count_nonzero(beta.maps[s] >= 0) == 1
    image = [y for y in beta.maps[3].tolist() if y >= 0]
    assert np.flatnonzero(beta.maps[3] >= 0).tolist() != image


def test_universal_action_zero_has_empty_domain():
    S = validate_inverse_semigroup(B2_TABLE)
    beta = universal_action(S)
    assert not (beta.maps[0] >= 0).any()


def test_clifford_action_fixes_filters():
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    beta = universal_action(S)
    for s in S.elements():
        assert all(y in (-1, x) for x, y in enumerate(beta.maps[s].tolist()))


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
    maps = np.array([[0 if s in acting else -1] for s in S.elements()])
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
    from germlab.groupoids import groupoid_isomorphic
    from test_groupoids import pair_groupoid

    assert groupoid_isomorphic(G, pair_groupoid(2)) is not None


def test_diamond_universal_germs_counts():
    germs = germ_groupoid(universal_action(diamond_munn()))
    assert germs.groupoid.n_arrows == 6
    assert len(germs.groupoid.units) == 3


def test_diamond_swap_germ_is_isolated_by_its_basis_set():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    E = S.idempotent_array.tolist()
    top = max(E, key=lambda e: sum(S.leq[f, e] for f in E))
    swap = next(s for s in S.elements()
                if s != top and S.mul(S.inv[s], s) == top == S.mul(s, S.inv[s]))
    point = next(x for x in range(germs.action.space_size)
                 if germs.action.point_labels[x] == f"up({S.label(top)})")
    arrow = germs.germ_at[swap, point]
    singled = [label for label, members in cut_catalog(germs.groupoid)
               if members == frozenset({arrow})]
    assert any(label.startswith(f"Theta({S.label(swap)},N^") for label in singled)


def test_action_kernel_of_universal_action_is_centralizer():
    for table in (B2_TABLE, CHAIN_ID_TABLE, Z2_TABLE):
        S = validate_inverse_semigroup(table)
        assert np.array_equal(action_kernel(universal_action(S)), centralizer(S))
    S = diamond_munn()
    assert np.array_equal(action_kernel(universal_action(S)), centralizer(S))


def test_action_kernel_of_faithful_group_action_is_identity():
    action = translation_action(Z2_TABLE)
    assert np.flatnonzero(action_kernel(action)).tolist() == [0]


def test_tight_action_of_diamond_swaps_the_two_ultrafilters():
    S = diamond_munn()
    theta = tight_action(S)
    assert theta.space_size == 2
    assert is_zero_disjunctive(semilattice_of(S))
    assert np.array_equal(action_kernel(theta), centralizer(S))


def test_tight_action_of_b2_equals_universal():
    S = validate_inverse_semigroup(B2_TABLE)
    beta, theta = universal_action(S), tight_action(S)
    assert theta.space_size == beta.space_size
    assert theta.maps.tolist() == beta.maps.tolist()


def test_domains_form_base_cases():
    S = diamond_munn()
    assert domains_form_base(tight_action(S))
    assert not domains_form_base(universal_action(S))
    assert not domains_form_base(translation_action(Z2_TABLE))


def test_induced_subgroupoid_extremes():
    S = validate_inverse_semigroup(B2_TABLE)
    germs = germ_groupoid(universal_action(S))
    units_only = induced_subgroupoid(germs, S.idempotent_mask)
    assert np.array_equal(units_only.arrows, germs.groupoid.unit_mask)
    everything = induced_subgroupoid(germs, np.ones(S.size, dtype=bool))
    assert everything.arrows.all()


def test_induced_subgroupoid_requires_subsemigroup():
    S = validate_inverse_semigroup(B2_TABLE)
    germs = germ_groupoid(universal_action(S))
    with pytest.raises(NotSubsemigroup):
        induced_subgroupoid(germs, np.arange(S.size) == 0)


def test_diamond_centralizer_groupoid_is_just_the_units():
    germs = germ_groupoid(universal_action(diamond_munn()))
    emb = centralizer_germs(germs)
    assert np.array_equal(emb.arrows, germs.groupoid.unit_mask)


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


def _random_acyclic_graph(seed):
    """Up to 5 vertices, each pair joined by at most two edges pointing from
    the earlier to the later vertex of a seeded order."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    order = rng.sample(range(n), n)
    edges = tuple((order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                  for _ in range(rng.choice((0, 0, 1, 1, 2))))
    return DirectedGraph(n, edges)


def _ambiguous_at_zero(S) -> bool:
    """Whether two incomparable idempotents have a nonzero product."""
    pairs = np.ix_(S.idempotent_array, S.idempotent_array)
    below = S.leq[pairs]
    return bool(((S.table[pairs] != S.zero) & ~below & ~below.T).any())


@pytest.mark.parametrize("graph", list(NAMED_GRAPHS.values())
                         + [_random_acyclic_graph(seed) for seed in range(20)])
def test_graph_idempotents_are_unambiguous_at_zero(graph):
    """xx* yy* is nonzero only when one of the paths x, y extends the other,
    and then the two idempotents are comparable."""
    assert not _ambiguous_at_zero(graph_inverse_semigroup(graph))


def test_ambiguity_at_zero_shows_on_a_symmetric_inverse_monoid():
    """{0>0,1>1} {1>1,2>2} = {1>1}: the property above is not vacuous."""
    assert _ambiguous_at_zero(builtin("symmetric:3"))


def _reference_homomorphism_witness(S, maps):
    """The first pair (s, t), row-major, whose rows composed point by point
    differ from the row of st; -1 is undefined."""
    for s in S.elements():
        for t in S.elements():
            after = [-1 if y < 0 else maps[s][y] for y in maps[t]]
            if after != list(maps[S.mul(s, t)]):
                return (s, t)
    return None


def test_validate_action_reports_the_row_major_homomorphism_witness():
    # Z3 = {0, g, g^2} by rotations, except that g^2 also rotates forwards
    S = validate_inverse_semigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    maps = [[0, 1, 2], [1, 2, 0], [1, 2, 0]]
    with pytest.raises(NotHomomorphism) as err:
        validate_action(S, 3, maps)
    assert err.value.pair == _reference_homomorphism_witness(S, maps) == (1, 1)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_validate_action_witness_matches_the_double_loop_on_broken_actions(name):
    """Reverse the images of one element's map at a time (its domain stays put)."""
    action = universal_action(builtin(name))
    S = action.semigroup
    tried = 0
    for s in S.elements():
        images = action.maps[s].tolist()
        defined = [x for x, y in enumerate(images) if y >= 0]
        if len({images[x] for x in defined}) < 2:
            continue
        broken = list(images)
        for x, y in zip(defined, reversed([images[x] for x in defined])):
            broken[x] = y
        maps = action.maps.tolist()
        maps[s] = broken
        expected = _reference_homomorphism_witness(S, maps)
        if expected is None:
            continue
        with pytest.raises(NotHomomorphism) as err:
            validate_action(S, action.space_size, maps)
        assert err.value.pair == expected
        tried += 1
        if tried == 3:
            break


def test_spectrum_action_rejects_an_image_outside_a_truncated_filter_list():
    # the two non-idempotents of B2 swap its two filters
    S = validate_inverse_semigroup(B2_TABLE)
    E = semilattice_of(S)
    with pytest.raises(StructureError, match="action image is not a filter of the spectrum"):
        spectrum_action(S, spectrum_points(E)[:-1], E)


def _filter_set_maps(S, points, E):
    """Reference for spectrum_action: each image of a filter F = up(g) is the
    upward closure of {s e s* : e in F}, looked up among the points' filters
    (-1 when s*s is not in F)."""
    to_sl = {e: i for i, e in enumerate(E.parent_index)}
    up = [frozenset(f for f in range(E.size) if E.leq(e, f)) for e in range(E.size)]
    filters = [up[g] for g in points.tolist()]
    point_of = {F: i for i, F in enumerate(filters)}
    rows = []
    for s in S.elements():
        ss = S.mul(S.inv[s], s)
        row = []
        for F in filters:
            if to_sl[ss] not in F:
                row.append(-1)
                continue
            moved = set()
            for e_sl in F:
                moved |= up[to_sl[S.mul(S.mul(s, E.parent_index[e_sl]), S.inv[s])]]
            row.append(point_of[frozenset(moved)])
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4",))
def test_spectrum_action_equals_the_filter_set_image(name, monkeypatch):
    """On S, and on S/mu's spectrum matched to S's: E(S) -> S -> S/mu ->
    E(S/mu) sends each point's generator to its own, and the projection's
    target acts on the matched filters of E(S/mu) as the filter sets say,
    though it reads its rows off S's action.  S/mu is S when S is
    fundamental."""
    seen = []

    def recording(S, points, E):
        action = spectrum_action(S, points, E)
        seen.append((S, points, E, action))
        return action

    monkeypatch.setattr(extensions, "spectrum_action", recording)
    sub = extensions.Subject(builtin(name))
    sub.universal, sub.projection
    assert len(seen) == 1
    [(S, points, E, action)] = seen
    assert action.maps.tolist() == _filter_set_maps(S, points, E)
    q = sub.mu_quotient
    E_T = semilattice_of(q.target)
    of_element = {e: i for i, e in enumerate(E_T.parent_index.tolist())}
    matched = np.array([of_element[q.projection[E.parent_index[p]]] for p in points.tolist()])
    target = sub.projection.target.action
    assert target.maps.tolist() == _filter_set_maps(q.target, matched, E_T)


# ---------------------------------------------------------------------------
# the germ groupoid against the dict-building construction the table replaced


def _reference_germs(action):
    """Germs numbered point by point, by first element, each product looked
    up pair by pair: (reps, arrow_of, labels, r, d, inv, comp, basis)."""
    S = action.semigroup
    rows = action.maps.tolist()
    n_pts = action.space_size
    domains = [frozenset(x for x, y in enumerate(row) if y >= 0) for row in rows]
    min_idem = []
    for x in range(n_pts):
        m = None
        for e in sorted(S.idempotent_set):
            if rows[e][x] >= 0:
                m = e if m is None else S.mul(m, e)
        min_idem.append(m)
    arrow_of, reps, key_to_arrow = {}, [], {}
    for x in range(n_pts):
        for s in S.elements():
            if rows[s][x] < 0:
                continue
            key = (x, S.mul(s, min_idem[x]))
            if key not in key_to_arrow:
                key_to_arrow[key] = len(reps)
                reps.append((s, x))
            arrow_of[(s, x)] = key_to_arrow[key]
    unit_at_point = [arrow_of[(min_idem[x], x)] for x in range(n_pts)]
    r = [unit_at_point[rows[s][x]] for s, x in reps]
    d = [unit_at_point[x] for _, x in reps]
    inv = [arrow_of[(S.inv[s], rows[s][x])] for s, x in reps]
    comp = {}
    for j, (s, x) in enumerate(reps):
        for i, (t, _) in enumerate(reps):
            if d[i] == unit_at_point[rows[s][x]]:
                comp[(i, j)] = arrow_of[(S.mul(t, s), x)]
    labels = [f"[{S.label(s)}|{action.point_labels[x]}]" for s, x in reps]
    basis, seen = [], set()
    for s in S.elements():
        for u_label, u_members in labeled_sets(*action.space_basis):
            cut = u_members & domains[s]
            theta = frozenset(arrow_of[(s, x)] for x in cut)
            if cut and theta not in seen:
                seen.add(theta)
                basis.append((f"Theta({S.label(s)},{u_label})", theta))
    return reps, arrow_of, labels, r, d, inv, comp, basis


@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4",))
def test_germ_groupoid_equals_the_dict_construction(name):
    S = builtin(name)
    for action in (universal_action(S), tight_action(S)):
        germs = germ_groupoid(action)
        G = germs.groupoid
        reps, arrow_of, labels, r, d, inv, comp, basis = _reference_germs(action)
        assert germs.rep_of.tolist() == [list(rep) for rep in reps]
        assert G.labels == tuple(labels)
        assert (G.r.tolist(), G.d.tolist(), G.inv.tolist()) == (r, d, inv)
        assert cut_catalog(G) == tuple(basis)
        assert [((g, h), gh) for g, h, gh in G.comp.tolist()] == list(comp.items())
        assert (G.table >= 0).sum() == len(comp)
        expected = np.full(action.maps.shape, -1)
        for (s, x), a in arrow_of.items():
            expected[s, x] = a
        assert germs.germ_at.tolist() == expected.tolist()
