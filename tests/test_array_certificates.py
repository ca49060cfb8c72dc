"""The six array certificates of the universal suite against the loops they replaced.

``spectrum.filter_closures``, ``spectrum.filters_principal``,
``germ.equivalence``, ``germ.fibers_are_h_classes``,
``groupoid.containment_chain`` and ``congruence.mu_inside_h`` each ran a
Python loop over filters, subsets, points, idempotents or mu blocks.  Each
``reference_*`` function below is that loop, kept as the oracle: the checks
must agree with it on the verdict and on the witness text, on the subjects,
on relabeled copies of them, and on inputs broken so that the checks fail.
The set-level oracles ``is_filter`` and ``exhaustive_filters`` live in
``test_semilattices``.
"""

import dataclasses
import re
import time
import tracemalloc

import numpy as np
import pytest

from germlab.actions import Action, germ_equivalence_is_equivalence
from germlab.congruences import Relation, congruence_witness
from germlab.errors import StructureError
from germlab.extensions import Subject
from germlab.groupoids import iso_bundle, iso_interior
from germlab.semigroups import CHUNK_ENTRIES, distinct, h_class_of
from germlab.semilattices import (
    EXHAUSTIVE_FILTER_CAP,
    Semilattice,
    filter_defects,
    filter_words,
    principal_filter,
    up_set_filters,
    up_sets,
    validate_semilattice,
)
from germlab.suites import run_checks

from test_congruences import _relabelled
from test_order_congruence_tables import SUBJECTS, subject
from test_properties import meet_closed_semilattice
from test_semilattices import DIAMOND_MEET, exhaustive_filters, is_filter

CHECKS = ("spectrum.filter_closures", "spectrum.filters_principal", "germ.equivalence",
          "germ.fibers_are_h_classes", "groupoid.containment_chain", "congruence.mu_inside_h")


# ---------------------------------------------------------------------------
# the loops


def reference_filter_closures(sub):
    filters = [principal_filter(sub.E, g) for g in sub.points.tolist()]
    for F in filters:
        if not is_filter(sub.E, F):
            return False, f"{sorted(F)} fails a closure property"
    return True, f"{len(filters)} filters"


def reference_filters_principal(sub):
    E = sub.E
    filters = {principal_filter(E, g) for g in sub.points.tolist()}
    if E.size > EXHAUSTIVE_FILTER_CAP:
        return True, f"skipped: {E.size} idempotents exceed the enumeration cap"
    if set(exhaustive_filters(E)) != filters:
        return False, "enumerated filters differ from the principal ones"
    return True, f"{len(filters)} principal filters"


def reference_germ_equivalence(action):
    S = action.semigroup
    T = S.table
    n = S.size
    idems = S.idempotent_array
    domain = action.maps >= 0
    for x in range(action.space_size):
        acting = np.flatnonzero(domain[:, x])
        around = idems[domain[idems, x]]
        if around.size == 0:
            if acting.size:
                return False
            continue
        m = around[0]
        for e in around[1:]:
            m = T[m, e]
        if not domain[m, x]:
            return False
        by_e = T[np.ix_(acting, around)] + n * np.arange(around.size)
        with_meet = by_e * n + T[acting, m][:, None]
        if distinct(with_meet).size != distinct(by_e).size:
            return False
    return True


def _canonical(germs, arrows):
    s, x = germs.rep_of[arrows].T
    return germs.action.semigroup.table[s, np.asarray(germs.base_idempotent)[x]]


def reference_fibers_are_h_classes(sub):
    S, germs = sub.S, sub.beta
    G = germs.groupoid
    for e in S.idempotent_array.tolist():
        if e == S.zero:
            continue
        u = germs.unit_at_point[germs.principal_point(e)]
        fiber = np.flatnonzero((G.r == u) & (G.d == u))
        image = np.full(G.n_arrows, -1, dtype=np.intp)
        image[fiber] = _canonical(germs, fiber)
        if sorted(image[fiber].tolist()) != sorted(h_class_of(S, e)):
            return False, f"fiber at idempotent {e} differs from its class group"
        products = image[G.table[np.ix_(fiber, fiber)]]
        i = np.flatnonzero(products != S.table[np.ix_(image[fiber], image[fiber])])
        if i.size:
            a, b = divmod(int(i[0]), fiber.size)
            return False, (f"fiber at idempotent {e} is not multiplicative "
                           f"at ({fiber[a]},{fiber[b]})")
    return True, "all isotropy fibers certified isomorphic"


def reference_containment_chain(sub):
    S, G, mu = sub.S, sub.beta.groupoid, sub.mu.labels
    z_arrows = sub.z_in_beta.arrows
    inner = iso_interior(G)
    iso = iso_bundle(G)
    if (z_arrows & ~inner).any() or (inner & ~iso).any():
        return False, "containment chain broken"
    for e in S.idempotent_array.tolist():
        if e == S.zero:
            continue
        u = sub.beta.unit_at_point[sub.beta.principal_point(e)]
        z_fiber = _canonical(sub.beta, np.flatnonzero(z_arrows & (G.d == u)))
        if not np.array_equal(distinct(z_fiber), np.flatnonzero(mu == mu[e])):
            return False, f"centralizer fiber at {e} is not its congruence class"
    return True, (f"|Z-germs|={np.count_nonzero(z_arrows)} <= "
                  f"|interior|={np.count_nonzero(inner)} <= |iso|={np.count_nonzero(iso)}")


def reference_mu_inside_h(sub):
    S, mu = sub.S, sub.mu
    h = S.h_partition.labels.tolist()
    for block in mu.blocks:
        idems = [x for x in block if S.idempotent_mask[x]]
        if len(idems) > 1:
            return False, f"relates idempotents {idems[0]} and {idems[1]}"
        apart = [x for x in block if h[x] != h[block[0]]]
        if apart:
            return False, f"relates {block[0]} and {apart[0]} across H classes"
    quad = congruence_witness(S, mu)
    if quad is not None:
        return False, f"not a congruence at {quad}"
    return True, f"{mu.count} blocks"


REFERENCES = {
    "spectrum.filter_closures": reference_filter_closures,
    "spectrum.filters_principal": reference_filters_principal,
    "germ.equivalence": lambda sub: (reference_germ_equivalence(sub.universal), ""),
    "germ.fibers_are_h_classes": reference_fibers_are_h_classes,
    "groupoid.containment_chain": reference_containment_chain,
    "congruence.mu_inside_h": reference_mu_inside_h,
}


def reference(sub, name):
    """The loop's (verdict, witness), an error turned into a witness as
    ``run_checks`` turns it."""
    try:
        return REFERENCES[name](sub)
    except StructureError as exc:
        return False, f"error: {exc}"


def agree(sub, name):
    """The check and its loop give the same verdict and witness; returns them."""
    [result] = run_checks(sub, name)
    assert (result.passed, result.witness) == reference(sub, name)
    return result.passed, result.witness


def shadowed(S, **fields):
    """A Subject of S whose named structures are replaced on this instance."""
    sub = Subject(S)
    for field, value in fields.items():
        setattr(sub, field, value)
    return sub


# ---------------------------------------------------------------------------
# the subjects and relabeled copies


@pytest.mark.parametrize("name", SUBJECTS)
def test_checks_agree_with_their_loops(name):
    sub = Subject(subject(name))
    for check in CHECKS:
        assert agree(sub, check)[0], (name, check)


@pytest.mark.parametrize("name", ("graph7", "symmetric:3 x group:z2", "group:z70", "b2",
                                  "diamond_munn"))
@pytest.mark.parametrize("seed", (1, 2))
def test_checks_agree_with_their_loops_on_relabeled_copies(name, seed):
    sub = Subject(_relabelled(subject(name), seed))
    for check in CHECKS:
        assert agree(sub, check)[0], (name, check)


# ---------------------------------------------------------------------------
# the filter test and the up-set enumeration


def antichain_with_zero(k):
    """k pairwise incomparable elements over a zero: 2^k up-sets."""
    meet = np.zeros((k + 1, k + 1), dtype=np.int64)
    meet[np.arange(1, k + 1), np.arange(1, k + 1)] = np.arange(1, k + 1)
    return validate_semilattice(meet)


def chain(n):
    return validate_semilattice([[min(i, j) for j in range(n)] for i in range(n)])


def mask_rows(E, subsets):
    rows = np.zeros((len(subsets), E.size), dtype=bool)
    for i, F in enumerate(subsets):
        rows[i, list(F)] = True
    return rows


def semilattices_to_16():
    """Every corpus and ladder E of at most 16 elements, and built ones."""
    found = [Subject(subject(n)).E for n in SUBJECTS]
    found += [antichain_with_zero(k) for k in (1, 2, 5, 12, 15)]
    found += [chain(n) for n in (1, 2, 7, 16)]
    found += [validate_semilattice(DIAMOND_MEET, zero=None)]
    rng = np.random.default_rng(16)
    for _ in range(12):
        E = meet_closed_semilattice(set(rng.integers(0, 32, size=rng.integers(1, 7)).tolist()))
        found.append(E)
    return [E for E in found if E.size <= 16]


def test_up_set_filters_equal_the_subset_enumeration():
    """Up to 16 elements: the up-sets that ``filter_defects`` passes are
    exactly the subsets that ``is_filter`` passes, and ``up_sets`` lists
    every up-set once."""
    sizes = set()
    for E in semilattices_to_16():
        expected = filter_words(mask_rows(E, exhaustive_filters(E)))
        assert np.array_equal(np.sort(up_set_filters(E)), np.sort(expected))
        words = up_sets(E)
        assert distinct(words).size == words.size
        if E.size <= 12:
            every = np.arange(1 << E.size, dtype=np.uint64)
            bits = ((every[:, None] >> np.arange(E.size, dtype=np.uint64)) & 1).astype(bool)
            closed = ~(bits[:, :, None] & E.order & ~bits[:, None, :]).any(axis=(1, 2))
            assert np.array_equal(np.sort(words), every[closed])
        sizes.add(E.size)
    assert max(sizes) == 16 and len(sizes) > 8


def _unchecked(meet, zero):
    """A meet table taken as given, with no semilattice validation."""
    meet = np.asarray(meet, dtype=np.int64)
    return Semilattice(meet, zero, tuple(f"e{i}" for i in range(len(meet))))


def test_filter_defects_agree_with_is_filter_row_by_row():
    """Random member masks over valid semilattices and over meet tables that
    are not commutative, not transitive or lose the zero: one verdict per
    row, as ``is_filter`` gives it."""
    rng = np.random.default_rng(7)
    tables = semilattices_to_16()
    broken = np.array(DIAMOND_MEET)
    broken[1, 2] = 1                   # a.b = a but b.a = 0: not commutative
    tables.append(_unchecked(broken, 0))
    tables.append(_unchecked([[0, 0, 1], [0, 1, 1], [1, 1, 2]], None))  # 0 < 1 < 2 but 0.2 = 1
    tables.append(_unchecked(rng.integers(0, 5, size=(5, 5)), 3))
    for E in tables:
        rows = rng.random((40, E.size)) < rng.random((40, 1))
        rows = np.concatenate((rows, E.order, np.zeros((1, E.size), dtype=bool)))
        expected = [not is_filter(E, frozenset(np.flatnonzero(r).tolist())) for r in rows]
        assert filter_defects(E, rows).tolist() == expected


def test_filter_defects_chunk_rows(monkeypatch):
    """With one row per chunk the verdicts are the same."""
    from germlab import semigroups

    E = antichain_with_zero(6)
    rows = ((up_sets(E)[:, None] >> np.arange(7, dtype=np.uint64)) & 1).astype(bool)
    whole = filter_defects(E, rows)
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 1)
    assert np.array_equal(filter_defects(E, rows), whole)
    assert np.count_nonzero(~whole) == 6


def test_up_set_filters_at_the_cap_are_fast_and_chunked():
    """The cap's worst case, a 19-antichain over a zero (524,289 up-sets):
    well inside the 1.5 s that the 2^20 loop of ``exhaustive_filters``
    takes, and no temporary beyond the up-set words (4 MB), which the
    enumeration holds about two and a half times while it grows them,
    and a few chunks of CHUNK_ENTRIES entries.  A stack of all up-sets as
    (up-sets, |E|, |E|) booleans would take 210 MB."""
    E = antichain_with_zero(EXHAUSTIVE_FILTER_CAP - 1)
    assert E.size == EXHAUSTIVE_FILTER_CAP
    E.order
    started = time.perf_counter()
    found = up_set_filters(E)
    elapsed = time.perf_counter() - started
    assert np.array_equal(np.sort(found), np.sort(filter_words(E.order[1:])))
    words = 1 << (EXHAUSTIVE_FILTER_CAP - 1)
    tracemalloc.start()
    try:
        up_set_filters(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * words + 16 * CHUNK_ENTRIES
    assert elapsed < 1.5


# ---------------------------------------------------------------------------
# broken inputs: the same FAIL witness


def test_a_broken_spectrum_row_fails_both_filter_checks_alike():
    """A meet table on three elements whose bottom meets the top in the
    middle: the point 0 has members {0, 1}, which is not upward closed, so
    the subsets that pass is_filter are no longer the principal rows."""
    E = _unchecked([[0, 0, 1], [0, 1, 1], [1, 1, 2]], None)
    sub = shadowed(subject("b2"), E=E, points=np.array([2, 1, 0]))
    assert agree(sub, "spectrum.filter_closures") == (False, "[0, 1] fails a closure property")
    assert agree(sub, "spectrum.filters_principal") == (
        False, "enumerated filters differ from the principal ones")


def test_a_spectrum_point_that_is_not_a_filter_is_named():
    """Adding the zero of b2's E as a point: its principal filter holds the zero."""
    S = subject("b2")
    sub = Subject(S)
    points = np.append(sub.points, sub.E.zero)
    sub = shadowed(S, points=points)
    witness = f"{np.flatnonzero(sub.E.order[sub.E.zero]).tolist()} fails a closure property"
    assert agree(sub, "spectrum.filter_closures") == (False, witness)
    assert agree(sub, "spectrum.filters_principal") == (
        False, "enumerated filters differ from the principal ones")


@pytest.mark.parametrize("name", ("b2", "diamond_munn", "symmetric:3 x group:z2"))
def test_a_missing_spectrum_point_fails_the_enumeration_check(name):
    sub = Subject(subject(name))
    sub = shadowed(sub.S, points=sub.points[1:])
    assert agree(sub, "spectrum.filters_principal") == (
        False, "enumerated filters differ from the principal ones")


def _broken_actions():
    """Actions built past ``validate_action``: one to three entries of the
    universal action's rows set to another point or to -1."""
    rng = np.random.default_rng(3)
    for name in ("b2", "diamond_munn", "symmetric:3", "group:z3"):
        action = Subject(subject(name)).universal
        for _ in range(25):
            maps = action.maps.copy()
            s = rng.integers(action.semigroup.size, size=rng.integers(1, 4))
            x = rng.integers(action.space_size, size=s.size)
            maps[s, x] = rng.integers(-1, action.space_size, size=s.size)
            yield Action(action.semigroup, action.space_size, maps, action.point_labels)


def test_germ_equivalence_agrees_on_broken_actions():
    """Each verdict as the loop gives it, with both verdicts seen."""
    verdicts = set()
    for broken in _broken_actions():
        verdict = germ_equivalence_is_equivalence(broken)
        assert verdict == reference_germ_equivalence(broken)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def germ_relation(action, x):
    """(s, x) ~ (t, x) pair by pair over the elements acting at x: se = te
    for some idempotent e acting at x."""
    S = action.semigroup
    acting = np.flatnonzero(action.maps[:, x] >= 0)
    around = S.idempotent_array[action.maps[S.idempotent_array, x] >= 0]
    products = S.table[np.ix_(acting, around)]
    return (products[:, None, :] == products[None, :, :]).any(axis=2)


def test_a_certified_germ_relation_is_an_equivalence():
    """Wherever the certificate holds on a broken action, the relation
    built pair by pair is reflexive, symmetric and transitive at every
    point; certified actions are seen."""
    certified = 0
    for broken in _broken_actions():
        if not germ_equivalence_is_equivalence(broken):
            continue
        certified += 1
        for x in range(broken.space_size):
            related = germ_relation(broken, x)
            assert related.diagonal().all()
            assert np.array_equal(related, related.T)
            assert not ((related.astype(np.intp) @ related > 0) & ~related).any()
    assert certified >= 10


def _replace_beta(sub, **fields):
    sub.beta = dataclasses.replace(sub.beta, **fields)
    return sub


def test_perturbed_fibers_give_the_loops_witnesses():
    """Each of: one composition entry of a loop moved to another arrow, or
    to -1; one arrow's representative moved to another element; one
    point's least idempotent replaced, so that an idempotent may have no
    principal point.  Every change is tried at several places, and every
    kind of witness is seen."""
    rng = np.random.default_rng(11)
    kinds = set()
    for name in ("group:z70", "symmetric:3 x group:z2", "graph7", "b2", "diamond_munn"):
        S = subject(name)
        G = Subject(S).beta.groupoid
        loops = np.flatnonzero(G.r == G.d)
        for _ in range(6):
            a, b = rng.choice(loops, size=2)
            table = G.table.copy()
            table[a, b] = rng.choice([-1, int(rng.integers(G.n_arrows))])
            sub = _replace_beta(Subject(S), groupoid=dataclasses.replace(G, table=table))
            kinds.add(re.sub(r"\d+", "", agree(sub, "germ.fibers_are_h_classes")[1]))

            sub = Subject(S)
            rep = sub.beta.rep_of.copy()
            rep[rng.integers(G.n_arrows), 0] = rng.integers(S.size)
            sub = _replace_beta(sub, rep_of=rep)
            base = sub.beta.base_idempotent.copy()
            base[rng.integers(base.size)] = rng.choice(S.idempotent_array)
            perturbed = _replace_beta(Subject(S), base_idempotent=base)
            for one in (sub, perturbed):
                for check in ("germ.fibers_are_h_classes", "groupoid.containment_chain"):
                    kinds.add(re.sub(r"\d+", "", agree(one, check)[1]))
    assert {"fiber at idempotent  is not multiplicative at (,)",
            "fiber at idempotent  differs from its class group",
            "centralizer fiber at  is not its congruence class",
            "error: no point is generated by idempotent "} <= kinds


def test_a_non_multiplicative_fiber_is_named_at_its_first_pair():
    """Two composition entries of z70's one fiber changed: the first in
    row-major order is the witness."""
    S = subject("group:z70")
    G = Subject(S).beta.groupoid
    table = G.table.copy()
    table[5, 7], table[3, 2] = table[5, 8], table[3, 3]
    sub = _replace_beta(Subject(S), groupoid=dataclasses.replace(G, table=table))
    assert agree(sub, "germ.fibers_are_h_classes") == (
        False, "fiber at idempotent 0 is not multiplicative at (3,2)")


@pytest.mark.parametrize("name", ("b2", "diamond_munn", "symmetric:3 x group:z2", "graph7"))
def test_a_mu_joining_two_idempotents_gives_the_loops_witness(name):
    """mu with the blocks of two idempotents merged, then with one
    non-idempotent moved into the block of an idempotent outside its H
    class: both checks that read mu give their loops' witnesses."""
    S = subject(name)
    mu = Subject(S).mu
    idems = S.idempotent_array
    for e, f in ((idems[0], idems[-1]), (idems[-1], idems[1])):
        labels = np.where(mu.labels == mu.labels[f], mu.labels[e], mu.labels)
        joined = Relation(labels)
        sub = shadowed(S, mu=joined)
        passed, witness = agree(sub, "congruence.mu_inside_h")
        assert not passed and witness.startswith("relates idempotents")
        assert agree(sub, "groupoid.containment_chain")[0] is False
    h = S.h_partition.labels
    x = int(np.flatnonzero((h != h[idems[0]]) & ~S.idempotent_mask)[-1])
    labels = mu.labels.copy()
    labels[x] = labels[idems[0]]
    sub = shadowed(S, mu=Relation(labels))
    passed, witness = agree(sub, "congruence.mu_inside_h")
    assert not passed and witness.endswith("across H classes")
    agree(sub, "groupoid.containment_chain")
