import pytest

from germlab.congruences import find_split_transversal
from germlab.errors import NotATransversal, ZeroPresent
from germlab.extensions import (
    mu_projection_hom,
    mu_projection_kernel,
    semidirect_from_split,
    sigma_cocycle,
    universal_germs,
)
from germlab.actions import centralizer_germs
from germlab.groupoids import hom_kernel, is_strongly_surjective
from germlab.semigroups import direct_product, validate_inverse_semigroup

from test_actions import diamond_munn
from test_congruences import CHAIN_ID_TABLE, CHAIN_KILL_TABLE
from test_semigroups import B2_TABLE, Z2_TABLE


def brandt_times_z2():
    return direct_product(validate_inverse_semigroup(B2_TABLE),
                          validate_inverse_semigroup(Z2_TABLE))


def test_mu_projection_is_isomorphism_for_fundamental():
    for S in (validate_inverse_semigroup(B2_TABLE), diamond_munn()):
        proj = mu_projection_hom(S)
        assert is_strongly_surjective(proj.hom)
        assert sorted(proj.hom.map) == list(proj.target.groupoid.arrows())
        assert mu_projection_kernel(proj) == frozenset(proj.source.groupoid.units)


def test_mu_projection_of_group_collapses_everything():
    G = validate_inverse_semigroup(Z2_TABLE)
    proj = mu_projection_hom(G)
    assert proj.target.groupoid.n_arrows == 1
    assert mu_projection_kernel(proj) == frozenset(proj.source.groupoid.arrows())


def test_mu_projection_kernel_is_centralizer_groupoid_for_chain():
    # the quotient is a semilattice, which is (vacuously) 0-E-unitary
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    proj = mu_projection_hom(S)
    assert is_strongly_surjective(proj.hom)
    emb = centralizer_germs(proj.source)
    assert mu_projection_kernel(proj) == emb.arrows


def test_mu_projection_kernel_for_brandt_times_z2():
    S = brandt_times_z2()
    proj = mu_projection_hom(S)
    assert proj.source.groupoid.n_arrows == 10
    assert proj.target.groupoid.n_arrows == 5
    emb = centralizer_germs(proj.source)
    assert len(emb.arrows) == 6
    assert mu_projection_kernel(proj) == emb.arrows


def test_quotient_spectrum_keeps_the_zero_free_designation():
    # S has no zero but S/mu does; the matched spectrum must keep both filters
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    proj = mu_projection_hom(S)
    assert len(proj.target.groupoid.units) == 2


def test_sigma_cocycle_on_group_is_isomorphism():
    G = validate_inverse_semigroup(Z2_TABLE)
    hom, germs = sigma_cocycle(G)
    assert sorted(hom.map) == [0, 1]
    assert hom_kernel(hom) == frozenset(germs.groupoid.units)


def test_sigma_cocycle_on_e_unitary_chain_has_unit_kernel():
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    hom, germs = sigma_cocycle(S)
    assert hom.target.n_arrows == 2
    assert set(hom.map) == {0, 1}
    assert hom_kernel(hom) == frozenset(germs.groupoid.units)


def test_sigma_cocycle_on_non_e_unitary_chain_has_larger_kernel():
    S = validate_inverse_semigroup(CHAIN_KILL_TABLE)
    hom, germs = sigma_cocycle(S)
    assert hom_kernel(hom) > frozenset(germs.groupoid.units)


def test_sigma_cocycle_rejects_zero_semigroups():
    with pytest.raises(ZeroPresent):
        sigma_cocycle(validate_inverse_semigroup(B2_TABLE))


def assert_certified_decomposition(S, r):
    dec = semidirect_from_split(S, r)
    assert dec.product.n_arrows == dec.germs.groupoid.n_arrows
    assert sorted(dec.iso.map) == list(dec.germs.groupoid.arrows())


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
    dec = semidirect_from_split(S, r)
    assert dec.product.n_arrows == dec.germs.groupoid.n_arrows == 10
    assert sorted(dec.iso.map) == list(dec.germs.groupoid.arrows())


def test_split_decomposition_rejects_bad_transversal():
    S = validate_inverse_semigroup(CHAIN_ID_TABLE)
    with pytest.raises(NotATransversal):
        semidirect_from_split(S, (1, 3))  # picks non-idempotents: not a section of mu


def test_universal_germs_arrow_counts():
    assert universal_germs(validate_inverse_semigroup(B2_TABLE)).groupoid.n_arrows == 4
    assert universal_germs(diamond_munn()).groupoid.n_arrows == 6
    assert universal_germs(validate_inverse_semigroup(CHAIN_ID_TABLE)).groupoid.n_arrows == 4
