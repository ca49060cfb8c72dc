"""The index-form germ topology against the deduplicated catalog it replaced.

A groupoid's basis is carried as ``Cuts``: integer rows (a germ groupoid's
``germ_at``) cut by boolean point sets (the unit catalog).  The oracle here
is the construction the predicates once read: the Theta catalog that
``germ_groupoid`` formed row by row and deduplicated, the subspace catalog
that ``extract_subgroupoid`` regrouped, and the n x n identity basis of
``make_groupoid``, with the dense interior over them.  The predicates must
give the same interior, witnesses (label strings included), openness,
closedness and effectiveness, and ``basis`` the same catalog.
"""

import tracemalloc

import numpy as np
import pytest

from germlab import groupoids
from germlab.actions import (
    Action,
    centralizer_germs,
    germ_groupoid,
    tight_action,
    universal_action,
)
from germlab.builtins import builtin
from germlab.congruences import Relation
from germlab.groupoids import (
    extract_subgroupoid,
    fiber_group,
    group_as_groupoid,
    interior,
    interior_witnesses,
    is_closed,
    is_effective,
    is_open,
    iso_bundle,
)
from germlab.suites import run_suite

from test_groupoids import Z3_TABLE, pair_groupoid
from test_order_congruence_tables import SUBJECTS, subject
from test_semigroups import Z2_TABLE


def reference_basis_catalog(sets, labels):
    """Each distinct nonempty row once, in row order, under its first label."""
    nonempty = np.flatnonzero(sets.any(axis=1))
    first = nonempty[Relation(sets[nonempty]).reps]
    return sets[first], tuple(labels[i] for i in first.tolist())


def reference_theta_catalog(germs):
    """The distinct nonempty sets Theta(s, U), first occurrences over the
    elements s, then the unit catalog's sets U, each cut's row over the
    points formed and grouped."""
    action, S = germs.action, germs.action.semigroup
    if action.space_basis is not None:
        inside, unit_labels = action.space_basis
    else:
        idems = S.idempotent_array
        domains = action.maps[idems] >= 0
        acting = domains.any(axis=1)
        inside = np.concatenate((domains[acting], np.eye(action.space_size, dtype=bool)))
        unit_labels = (tuple(f"D[{S.label(e)}]" for e in idems[acting].tolist())
                       + tuple(f"{{{label}}}" for label in action.point_labels))
    germ_at = germs.germ_at
    cuts = (germ_at >= 0).astype(np.float32) @ inside.T.astype(np.float32)
    s, j = np.nonzero(cuts > 0)
    rows = np.where(inside[j], germ_at[s], -1)
    first = Relation(rows).reps
    kept = rows[first]
    sets = np.zeros((first.size, germs.groupoid.n_arrows), dtype=bool)
    at, x = np.nonzero(kept >= 0)
    sets[at, kept[at, x]] = True
    return sets, tuple(f"Theta({S.labels[a]},{unit_labels[b]})"
                       for a, b in zip(s[first].tolist(), j[first].tolist()))


def reference_subspace_catalog(catalog, order):
    """The catalog restricted to the arrows in order; every arrow gives the
    groupoid itself, catalog unchanged."""
    sets, labels = catalog
    if len(order) == sets.shape[1]:
        return catalog
    return reference_basis_catalog(sets[:, order], [label + "|sub" for label in labels])


def reference_discrete_catalog(G):
    return np.eye(G.n_arrows, dtype=bool), tuple(f"{{{label}}}" for label in G.labels)


def reference_witnesses(catalog, subset):
    sets, labels = catalog
    within = np.flatnonzero((sets <= subset).all(axis=1))
    out = {}
    for i in within.tolist():
        for a in np.flatnonzero(sets[i]).tolist():
            out.setdefault(a, labels[i])
    return out


def reference_interior(catalog, subset):
    sets, _ = catalog
    return sets[(sets <= subset).all(axis=1)].any(axis=0)


def assert_same_topology(G, catalog, seed):
    """The predicates on G against the dense catalog, on the empty set, all
    arrows, the isotropy, the units, the isotropy off the units, seeded
    random masks and unions of catalog sets."""
    sets, _ = catalog
    assert len(G.basis) == len(sets)
    assert np.array_equal(G.basis, sets)
    n = G.n_arrows
    rng = np.random.default_rng(seed)
    iso, units = iso_bundle(G), G.unit_mask
    masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), iso, units, iso & ~units]
    masks += [rng.random(n) < p for p in (0.3, 0.6, 0.9)]
    masks += [sets[rng.random(len(sets)) < 0.3].any(axis=0) for _ in range(3)]
    for subset in masks:
        inner = reference_interior(catalog, subset)
        assert np.array_equal(interior(G, subset), inner)
        assert interior_witnesses(G, subset) == reference_witnesses(catalog, subset)
        assert is_open(G, subset) == np.array_equal(inner, subset)
        assert is_closed(G, subset) == np.array_equal(reference_interior(catalog, ~subset),
                                                      ~subset)
    assert is_effective(G) == (not reference_interior(catalog, iso & ~units).any())
    assert np.array_equal(G.isotropy_interior, reference_interior(catalog, iso))


@pytest.mark.parametrize("name", SUBJECTS)
def test_germ_topology_equals_the_deduplicated_catalog(name):
    """Universal and tight germ groupoids, with the declared spectrum basis
    and without it, and the centralizer bundle of each."""
    S = subject(name)
    for seed, action in enumerate((universal_action(S), tight_action(S))):
        undeclared = Action(S, action.space_size, action.maps, action.point_labels)
        for a in (action, undeclared):
            germs = germ_groupoid(a)
            catalog = reference_theta_catalog(germs)
            assert_same_topology(germs.groupoid, catalog, seed)
            z = centralizer_germs(germs)
            assert_same_topology(z.groupoid, reference_subspace_catalog(catalog, z.to_parent),
                                 seed)


def test_made_groupoids_carry_one_singleton_cut_per_arrow():
    """make_groupoid's discrete basis, and the subspace bases of its
    isotropy groups, including a subgroupoid of a subgroupoid."""
    made = [pair_groupoid(1), pair_groupoid(2), pair_groupoid(3), group_as_groupoid(Z2_TABLE),
            group_as_groupoid(Z3_TABLE), group_as_groupoid(builtin("group:z70").table)]
    for seed, G in enumerate(made):
        assert G.cuts.rows.shape == (G.n_arrows, 1)
        catalog = reference_discrete_catalog(G)
        assert_same_topology(G, catalog, seed)
        for u in G.units:
            H = fiber_group(G, u).groupoid
            order = np.flatnonzero((G.r == u) & (G.d == u))
            assert_same_topology(H, reference_subspace_catalog(catalog, order), seed)
    germs = germ_groupoid(universal_action(subject("symmetric:4")))
    catalog = reference_theta_catalog(germs)
    for u in germs.groupoid.units[:4]:
        fiber = fiber_group(germs.groupoid, u).groupoid
        order = np.flatnonzero((germs.groupoid.r == u) & (germs.groupoid.d == u))
        inner = reference_subspace_catalog(catalog, order)
        assert_same_topology(fiber, inner, u)
        one, back = extract_subgroupoid(fiber, fiber.unit_mask)
        assert_same_topology(one, reference_subspace_catalog(inner, back), u)


def traced_peak(call):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain256_germ_build_stays_under_50_mb():
    """The 256-element chain's universal germ groupoid forms no row per cut:
    its tracemalloc peak was 408 MB when every nonempty cut's row over the
    points was formed before deduplication."""
    action = universal_action(builtin("semilattice:chain256"))
    assert traced_peak(lambda: germ_groupoid(action)) < 50 * 2**20


def test_chain256_dense_catalog_stays_under_50_mb():
    """The dense view deduplicates a chunk of cuts at a time: it peaked at
    426 MB when every nonempty cut's row was formed first."""
    G = germ_groupoid(universal_action(builtin("semilattice:chain256"))).groupoid
    assert traced_peak(lambda: G.cuts.catalog(G.n_arrows)) < 50 * 2**20


def test_chain256_universal_suite_stays_under_50_mb():
    """The whole universal suite on a prebuilt 256-element chain: it peaked
    at 403 MB when ``germ.equivalence`` keyed every triple of a point, an
    element and an idempotent acting there."""
    S = builtin("semilattice:chain256")
    peak = traced_peak(lambda: run_suite("semilattice:chain256", S, "universal"))
    assert peak < 50 * 2**20


@pytest.mark.parametrize("name", ["symmetric:4", "graph7"])
def test_suites_never_build_the_dense_basis(monkeypatch, name):
    """Every suite reads the topology in index form: ``basis``, the dense
    catalog that ``germlab germs`` prints the size of, is built zero times."""
    calls = []
    real = groupoids.Cuts.catalog

    def counting(self, n_arrows):
        calls.append(n_arrows)
        return real(self, n_arrows)

    monkeypatch.setattr(groupoids.Cuts, "catalog", counting)
    reports = run_suite(name, subject(name), "all")
    assert reports and all(report.passed for report in reports)
    assert calls == []
