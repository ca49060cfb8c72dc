import re
import zlib

import numpy as np
import pytest

from germlab import extensions
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.congruences import find_split_transversal
from germlab.errors import NotATransversal, StructureError, ZeroPresent
from germlab.extensions import (
    Subject,
    mu_projection_hom,
    semidirect_factors,
    semidirect_from_split,
    sigma_cocycle,
    universal_germs,
)
from germlab.actions import centralizer_germs
from germlab.groupoids import (
    GroupoidHom,
    hom_kernel,
    is_strongly_surjective,
    make_groupoid,
    validate_hom,
)
from germlab.semigroups import direct_product, validate_inverse_semigroup
from germlab.suites import run_checks

from test_actions import diamond_munn
from test_congruences import CHAIN_ID_TABLE, CHAIN_KILL_TABLE
from test_groupoids import pair_groupoid
from test_semigroups import B2_TABLE, Z2_TABLE


def brandt_times_z2():
    return direct_product(validate_inverse_semigroup(B2_TABLE),
                          validate_inverse_semigroup(Z2_TABLE))


def test_mu_projection_is_isomorphism_for_fundamental():
    for S in (validate_inverse_semigroup(B2_TABLE), diamond_munn()):
        proj = mu_projection_hom(S)
        assert is_strongly_surjective(proj.hom)
        assert sorted(proj.hom.map) == list(proj.target.groupoid.arrows())
        assert np.array_equal(hom_kernel(proj.hom), proj.source.groupoid.unit_mask)


def test_mu_projection_of_group_collapses_everything():
    G = validate_inverse_semigroup(Z2_TABLE)
    proj = mu_projection_hom(G)
    assert proj.target.groupoid.n_arrows == 1
    assert hom_kernel(proj.hom).all()


def test_mu_projection_kernel_is_centralizer_groupoid_for_chain():
    # the quotient is a semilattice, which is (vacuously) 0-E-unitary
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    proj = mu_projection_hom(S)
    assert is_strongly_surjective(proj.hom)
    emb = centralizer_germs(proj.source)
    assert np.array_equal(hom_kernel(proj.hom), emb.arrows)


def test_mu_projection_kernel_for_brandt_times_z2():
    S = brandt_times_z2()
    proj = mu_projection_hom(S)
    assert proj.source.groupoid.n_arrows == 10
    assert proj.target.groupoid.n_arrows == 5
    emb = centralizer_germs(proj.source)
    assert np.count_nonzero(emb.arrows) == 6
    assert np.array_equal(hom_kernel(proj.hom), emb.arrows)


def test_quotient_spectrum_keeps_the_zero_free_designation():
    # S has no zero but S/mu does; the matched spectrum must keep both filters
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    proj = mu_projection_hom(S)
    assert len(proj.target.groupoid.units) == 2


def test_sigma_cocycle_on_group_is_isomorphism():
    G = validate_inverse_semigroup(Z2_TABLE)
    hom, germs = sigma_cocycle(G)
    assert sorted(hom.map) == [0, 1]
    assert np.array_equal(hom_kernel(hom), germs.groupoid.unit_mask)


def test_sigma_cocycle_on_e_unitary_chain_has_unit_kernel():
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    hom, germs = sigma_cocycle(S)
    assert hom.target.n_arrows == 2
    assert set(hom.map) == {0, 1}
    assert np.array_equal(hom_kernel(hom), germs.groupoid.unit_mask)


def test_sigma_cocycle_on_non_e_unitary_chain_has_larger_kernel():
    S = validate_inverse_semigroup(CHAIN_KILL_TABLE)
    hom, germs = sigma_cocycle(S)
    kernel, units = hom_kernel(hom), germs.groupoid.unit_mask
    assert (kernel >= units).all() and (kernel & ~units).any()


def test_sigma_cocycle_rejects_zero_semigroups():
    with pytest.raises(ZeroPresent):
        sigma_cocycle(validate_inverse_semigroup(B2_TABLE))


def assert_certified_decomposition(S, r):
    dec = semidirect_from_split(S, r)
    G = universal_germs(S).groupoid
    assert G.table[dec.factors[:, 0], dec.factors[:, 1]].tolist() == list(G.arrows())
    return dec


def test_split_decomposition_fundamental_identity_transversal():
    for S in (validate_inverse_semigroup(B2_TABLE), diamond_munn()):
        r = find_split_transversal(S)
        assert r == tuple(range(S.size))
        assert_certified_decomposition(S, r)


def test_split_decomposition_chain():
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    r = find_split_transversal(S)
    assert_certified_decomposition(S, r)


def test_split_decomposition_of_brandt_times_z2():
    S = brandt_times_z2()
    r = find_split_transversal(S)
    assert r is not None
    assert len(assert_certified_decomposition(S, r).factors) == 10


def test_split_decomposition_rejects_bad_transversal():
    # (1, 3) picks a non-idempotent in each class, a section of mu that is
    # not multiplicative (f.1 f.1 = f.0, not f.1); 99 and -1 are no
    # elements, and -1 must not index from the end; (0,) misses a class
    S = builtin("clifford_chain:identity")
    for r in ((1, 3), (99, 2), (-1, 2), (0,)):
        with pytest.raises(NotATransversal):
            semidirect_from_split(S, r)


@pytest.mark.parametrize("r, witness", [((2, 0), "not a section at class 0"),
                                          ((1, 3), "not multiplicative at (0,0)")])
def test_bad_transversal_error_words_the_defect_as_the_check_does(r, witness):
    with pytest.raises(NotATransversal) as err:
        semidirect_from_split(builtin("clifford_chain:identity"), r)
    assert str(err.value) == witness


def external_semidirect_product(G, h_arrows, k_arrows):
    """H x| K built as a groupoid of its own, K acting on H by conjugation.

    The arrows are the pairs (eta, gamma) with r(eta) = r(gamma), and
    (eta1, gamma1)(eta2, gamma2) = (eta1 (gamma1 eta2 gamma1^-1), gamma1 gamma2)
    where d(gamma1) = r(gamma2).  Returns the product, validated by
    ``make_groupoid``, and the pair (eta, gamma) of each of its arrows.
    """
    h, k = np.flatnonzero(h_arrows), np.flatnonzero(k_arrows)
    i, j = np.nonzero(G.r[h][:, None] == G.r[k])
    eta, gamma = h[i], k[j]
    index = np.full((G.n_arrows, G.n_arrows), -1, dtype=np.intp)
    index[eta, gamma] = np.arange(eta.size)
    T, g_inv = G.table, G.inv[gamma]
    r, d = (index[u, u] for u in (G.r[gamma], G.d[gamma]))
    inv = index[T[T[g_inv, G.inv[eta]], gamma], g_inv]      # (gamma^-1 eta^-1 gamma, gamma^-1)
    acted = T[T[gamma[:, None], eta], g_inv[:, None]]         # gamma1 eta2 gamma1^-1
    table = np.where(G.d[gamma][:, None] == G.r[gamma],
                     index[T[eta[:, None], acted], T[gamma[:, None], gamma]], -1)
    return make_groupoid(r, d, inv, table), np.stack((eta, gamma), axis=1)


@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4",))
def test_factors_invert_the_external_semidirect_product(name):
    """The reference for the factorization certificate: H x| K built and
    validated as a groupoid, whose multiplication map (eta, gamma) -> eta gamma
    is a homomorphism onto G(S) that ``factors`` inverts."""
    sub = Subject(builtin(name))
    r = sub.transversal
    assert isinstance(r, tuple)
    G = sub.beta.groupoid
    product, pairs = external_semidirect_product(
        G, sub.z_in_beta.arrows, sub.beta.germs_of(np.asarray(r, dtype=np.intp)))
    mult = G.table[pairs[:, 0], pairs[:, 1]]
    validate_hom(GroupoidHom(product, G, tuple(mult.tolist())))
    factors = sub.split_decomposition(r).factors
    assert product.n_arrows == len(factors) == G.n_arrows
    assert (factors[mult] == pairs).all()


def non_normal_bundle():
    """The pair groupoid on 2 points times Z2, arrow (i j) 2 + g being
    (i <- j; g), with the bundle {(0 <- 0; 0), (0 <- 0; 1), (1 <- 1; 0)},
    which conjugation by (1 <- 0; 0) does not keep, and the copy of the pair
    groupoid (g = 0)."""
    i, j, g = np.unravel_index(np.arange(8), (2, 2, 2))
    table = np.where(j[:, None] == i, (i[:, None] * 2 + j) * 2 + (g[:, None] ^ g), -1)
    G = make_groupoid(i * 6, j * 6, (j * 2 + i) * 2 + g, table)
    return G, np.isin(np.arange(8), (0, 1, 6)), np.isin(np.arange(8), (0, 2, 4, 6))


def _z3_with(h, k):
    G = universal_germs(builtin("group:z3")).groupoid
    pick = {"units": G.unit_mask, "all": np.ones(G.n_arrows, dtype=bool),
            "one": np.arange(G.n_arrows) == G.n_arrows - 1}
    return G, pick[h], pick[k]


@pytest.mark.parametrize("groupoid,message", [
    (lambda: _z3_with("all", "all"), "arrow 0 has 3 factorizations eta gamma"),
    (lambda: _z3_with("units", "units"), "arrow 1 has no factorization eta gamma"),
    (lambda: _z3_with("one", "units"), "the bundle H is not a subgroupoid"),
    (lambda: _z3_with("all", "one"), "the complement K is not a subgroupoid"),
    (lambda: (pair_groupoid(2), np.ones(4, dtype=bool), np.ones(4, dtype=bool)),
     "the bundle H is not a group bundle"),
    (non_normal_bundle, "the bundle H is not normal"),
], ids=["twice", "never", "h-open", "k-open", "not-bundle", "not-normal"])
def test_semidirect_factors_rejects_each_broken_hypothesis(groupoid, message):
    G, h_arrows, k_arrows = groupoid()
    with pytest.raises(StructureError, match=f"^{message}$"):
        semidirect_factors(G, h_arrows, k_arrows)


@pytest.mark.parametrize("name", ["b2", "symmetric:3", "brandt_z2"])
def test_semidirect_factors_needs_every_transversal_germ(name):
    """Dropping any one germ of K leaves an arrow without a factorization,
    or K without closure."""
    sub = Subject(builtin(name))
    G, h_arrows = sub.beta.groupoid, sub.z_in_beta.arrows
    k_arrows = sub.beta.germs_of(np.asarray(sub.transversal, dtype=np.intp))
    semidirect_factors(G, h_arrows, k_arrows)
    for gamma in np.flatnonzero(k_arrows):
        with pytest.raises(StructureError):
            semidirect_factors(G, h_arrows, k_arrows & (np.arange(G.n_arrows) != gamma))


def _moved_range(name, rng):
    """A fresh Subject of a builtin whose universal groupoid has one arrow's
    range moved to another unit, both drawn from rng."""
    sub = Subject(builtin(name))
    G = sub.beta.groupoid
    a = int(rng.integers(G.n_arrows))
    G.r = G.r.copy()
    G.r[a] = rng.choice([u for u in G.units if u != G.r[a]])
    return sub


@pytest.mark.parametrize("name", ["b2", "diamond_munn", "symmetric:3", "graph:parallel2"])
def test_a_moved_range_fails_the_semidirect_check_with_a_witness(name):
    """Three seeded moves of one arrow's range in the universal groupoid:
    every subject check returns a result or raises ``StructureError``, and
    the semidirect decomposition fails with a witness, at least once at a
    pair (eta, gamma) with one range and no product, which ``np.bincount``
    refused with a ``ValueError`` before it was checked."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    witnesses = []
    for _ in range(3):
        sub = _moved_range(name, rng)
        results = [c for suite in ("universal", "tight", "extension", "algebra")
                   for c in run_checks(sub, suite)]
        [semi] = [c for c in results if c.name == "extension.semidirect_decomposition"]
        assert not semi.passed, name
        witnesses.append(semi.witness)
    assert all(re.fullmatch(r"error: (eta \d+ and gamma \d+ have no product"
                            r"|the bundle H is not a group bundle)", w) for w in witnesses)
    assert any("no product" in w for w in witnesses), witnesses


def test_universal_germs_arrow_counts():
    assert universal_germs(validate_inverse_semigroup(B2_TABLE)).groupoid.n_arrows == 4
    assert universal_germs(diamond_munn()).groupoid.n_arrows == 6
    assert universal_germs(validate_inverse_semigroup(CHAIN_ID_TABLE)).groupoid.n_arrows == 4


@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4",))
def test_projection_map_is_the_germ_lookup_of_each_arrow(name):
    sub = Subject(builtin(name))
    proj, q = sub.projection, sub.mu_quotient
    s, x = sub.beta.rep_of.T
    assert proj.hom.map.tolist() == proj.target.germ_at[q.projection[s], x].tolist()


def test_projection_names_the_first_arrow_without_a_target_germ(monkeypatch):
    """With the target's germs at point 1 knocked out, the first source
    arrow at point 1 (arrows are numbered point by point) is reported."""
    sub = Subject(builtin("symmetric:3"))
    rep_of = sub.beta.rep_of            # the source, built before the patch
    real = extensions.germ_groupoid

    def without_point_1(action):
        germs = real(action)
        germs.germ_at[:, 1] = -1
        return germs

    monkeypatch.setattr(extensions, "germ_groupoid", without_point_1)
    s, x = rep_of[np.argmax(rep_of[:, 1] == 1)].tolist()
    with pytest.raises(StructureError) as raised:
        sub.projection
    image = sub.mu_quotient.projection[s]
    assert str(raised.value) == f"point {x} is outside the domain of element {image}"
