"""The element-map certificate of the germ groupoids, and the strong
surjectivity of the projection onto the germs of S/mu.

``actions.certify_germ_groupoid`` is what ``germ.groupoid_axioms``,
``tight.action_valid`` and ``extension.projection_strongly_surjective``
run on the germs of S, of its tight action and of S/mu.  The sweep here
corrupts each of them after the Subject built it and before the check
reads it: each corruption must fail the check with a ``StructureError``
witness, and no other exception may escape."""

import dataclasses

import numpy as np
import pytest

from germlab.builtins import CORPUS_NAMES, builtin
from germlab.extensions import Subject
from germlab.groupoids import GroupoidHom, discrete_groupoid, is_strongly_surjective
from germlab.semigroups import distinct
from germlab.suites import run_checks

SUBJECTS = CORPUS_NAMES + ("symmetric:4",)
# the germ groupoid each check certifies: (Subject field, check)
TARGETS = (("beta", "germ.groupoid_axioms"), ("theta", "tight.action_valid"),
           ("projection", "extension.projection_strongly_surjective"))
KINDS = ("germ_at", "rep_of", "table", "range", "inverse", "units", "base_idempotent")
DRAWS = 3


def _corrupt(germs, kind, rng):
    """A copy of a germ groupoid with one corruption of the kind, or None
    where the kind needs two arrows and there is one:
    germ_at     one defined entry redirected to another arrow
    rep_of      two arrows' representatives swapped
    table       one entry of the composition table changed, -1 included
    range       one arrow's range moved to another arrow
    inverse     one arrow's inverse moved to another arrow
    units       one unit dropped from the list
    base_idempotent  one point's m_x replaced by another element"""
    G = germs.groupoid
    n = G.n_arrows
    if kind == "base_idempotent":
        size = germs.action.semigroup.size
        if size < 2:
            return None
        base = germs.base_idempotent.copy()
        x = rng.integers(base.size)
        base[x] = (base[x] + rng.integers(1, size)) % size
        return dataclasses.replace(germs, base_idempotent=base)
    if kind == "units":
        units = np.delete(G.units, rng.integers(G.units.size))
        return dataclasses.replace(germs, groupoid=dataclasses.replace(G, units=units))
    if kind == "table":
        g, h = rng.integers(n, size=2)
        table = G.table.copy()
        table[g, h] = (table[g, h] + 1 + rng.integers(1, n + 1)) % (n + 1) - 1
        return dataclasses.replace(germs, groupoid=dataclasses.replace(G, table=table))
    if n < 2:
        return None
    if kind == "germ_at":
        s, x = np.nonzero(germs.germ_at >= 0)
        i = rng.integers(s.size)
        germ_at = germs.germ_at.copy()
        germ_at[s[i], x[i]] = (germ_at[s[i], x[i]] + rng.integers(1, n)) % n
        return dataclasses.replace(germs, germ_at=germ_at)
    if kind == "rep_of":
        a, b = rng.choice(n, size=2, replace=False)
        rep_of = germs.rep_of.copy()
        rep_of[[a, b]] = rep_of[[b, a]]
        return dataclasses.replace(germs, rep_of=rep_of)
    field = {"range": "r", "inverse": "inv"}[kind]
    g = rng.integers(n)
    moved = getattr(G, field).copy()
    moved[g] = (moved[g] + rng.integers(1, n)) % n
    return dataclasses.replace(germs, groupoid=dataclasses.replace(G, **{field: moved}))


def _run(whole, field, check, germs):
    """The check alone over a fresh Subject of the same semigroup whose germ
    groupoid (for the projection, its target) is the given one; the other
    structures it reads come from ``whole``."""
    sub = Subject(whole.S)
    if field == "projection":
        germs = dataclasses.replace(whole.projection, target=germs)
    setattr(sub, field, germs)     # shadows the cached property on this instance
    [result] = run_checks(sub, check)
    return result


@pytest.mark.parametrize("name", SUBJECTS)
def test_every_corruption_fails_its_certificate(name):
    """Seeded: per germ groupoid and kind, DRAWS corruptions.
    ``validate_groupoid``, which these checks ran before the element map,
    reads neither ``germ_at`` nor ``rep_of`` and passes every such
    corruption."""
    whole = Subject(builtin(name))
    missed = []
    for t, (field, check) in enumerate(TARGETS):
        germs = whole.projection.target if field == "projection" else getattr(whole, field)
        assert _run(whole, field, check, germs).passed, (field, "uncorrupted")
        for k, kind in enumerate(KINDS):
            for draw in range(DRAWS):
                rng = np.random.default_rng([SUBJECTS.index(name), t, k, draw])
                broken = _corrupt(germs, kind, rng)
                if broken is None:
                    continue
                result = _run(whole, field, check, broken)
                if result.passed or not result.witness.startswith("error: "):
                    missed.append((field, kind, draw, result.witness))
    assert missed == []


def test_a_finer_relation_at_an_acting_idempotent_fails():
    """The tight germs of the chain c0 < c1 < c2: one point x, at which c1
    and c2 act, m_x = c1, and one arrow [c1, x] = [c2, x].  The finer
    relation s c2 = t c2, with [c1, x] and [c2, x] two units and m_x = c2,
    acting at x, passes every other check of the certificate; only m_x
    being the least acting idempotent refuses it."""
    sub = Subject(builtin("semilattice:chain3"))
    theta = sub.theta
    assert (theta.base_idempotent.tolist(), theta.germ_at.ravel().tolist()) == ([1], [-1, 0, 0])
    germ_at = np.array([[-1], [0], [1]])
    G = dataclasses.replace(discrete_groupoid([0, 1], [0, 1], [0, 1], [[0, -1], [-1, 1]]),
                            cuts=dataclasses.replace(theta.groupoid.cuts, rows=germ_at))
    finer = dataclasses.replace(theta, groupoid=G, germ_at=germ_at,
                                rep_of=np.array([[1, 0], [2, 0]]), base_idempotent=np.array([2]))
    result = _run(sub, "theta", "tight.action_valid", finer)
    assert not result.passed
    assert result.witness == "error: point 0: 2 is not the least idempotent acting there"


def _fiber_loop(hom):
    """Strong surjectivity as a loop over the source units, one fiber each:
    the reference for the one-comparison ``is_strongly_surjective``."""
    S, T = hom.source, hom.target
    m = np.asarray(hom.map, dtype=np.intp)
    return all(np.array_equal(distinct(m[S.d == u]), np.flatnonzero(T.d == m[u]))
               for u in S.units)


@pytest.mark.parametrize("name", SUBJECTS)
def test_strong_surjectivity_matches_the_fiber_loop(name):
    """The projection onto the germs of S/mu, the map of every arrow to the
    first unit (the uncovered fiber of the projection check's test), the
    identity, and the projection with one arrow's image moved."""
    sub = Subject(builtin(name))
    proj = sub.projection.hom
    G = sub.beta.groupoid
    moved = proj.map.copy()
    moved[-1] = (moved[-1] + 1) % proj.target.n_arrows
    homs = (proj, GroupoidHom(G, G, np.full(G.n_arrows, G.units[0])),
            GroupoidHom(G, G, np.arange(G.n_arrows)),
            GroupoidHom(G, proj.target, moved))
    verdicts = [is_strongly_surjective(h) for h in homs]
    assert verdicts == [_fiber_loop(h) for h in homs]
    assert verdicts[0] and verdicts[2]
