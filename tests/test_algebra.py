import zlib

import numpy as np
import pytest

from germlab import algebra
from germlab.actions import EmbeddedSubgroupoid, centralizer_germs, germ_groupoid, universal_action
from germlab.algebra import (
    GroupoidFunction,
    conditional_expectation,
    convolve,
    delta,
    embed,
    involution,
    random_function,
    reduced_norm,
    regular_representation,
)
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.errors import GroupoidMismatch, HypothesisFailed
from germlab.groupoids import extract_subgroupoid, group_as_groupoid, make_groupoid, pair_groupoid
from germlab.semigroups import validate_inverse_semigroup

from test_actions import diamond_munn
from test_semigroups import B2_TABLE


def product_pair_z2():
    """Pair groupoid on 2 points times the order-2 group."""
    idx = {(i, j, g): (i * 2 + j) * 2 + g
           for i in range(2) for j in range(2) for g in range(2)}
    r, d, inv = [], [], []
    for (i, j, g), a in sorted(idx.items(), key=lambda kv: kv[1]):
        r.append(idx[(i, i, 0)])
        d.append(idx[(j, j, 0)])
        inv.append(idx[(j, i, g)])
    comp = {}
    for i in range(2):
        for j in range(2):
            for g in range(2):
                for k in range(2):
                    for h in range(2):
                        comp[(idx[(i, j, g)], idx[(j, k, h)])] = idx[(i, k, g ^ h)]
    return make_groupoid(r, d, inv, comp), idx


def embedded(parent, arrows):
    sub, order = extract_subgroupoid(parent, frozenset(arrows))
    return EmbeddedSubgroupoid(parent, frozenset(arrows), sub, order)


def test_delta_convolution_follows_composition():
    G = pair_groupoid(2)
    for a in G.arrows():
        for b in G.arrows():
            prod = convolve(delta(G, a), delta(G, b))
            if G.d[a] == G.r[b]:
                assert prod.close_to(delta(G, G.comp[(a, b)]))
            else:
                assert np.max(np.abs(prod.values)) == 0


def test_pair_groupoid_convolution_is_matrix_multiplication():
    G = pair_groupoid(2)
    idx = {(i, j): i * 2 + j for i in range(2) for j in range(2)}
    rng = np.random.default_rng(11)
    for _ in range(10):
        fm = rng.integers(-4, 5, size=(2, 2))
        gm = rng.integers(-4, 5, size=(2, 2))
        f = GroupoidFunction(G, np.array([fm[i, j] for (i, j), _ in sorted(idx.items(), key=lambda kv: kv[1])], dtype=complex))
        g = GroupoidFunction(G, np.array([gm[i, j] for (i, j), _ in sorted(idx.items(), key=lambda kv: kv[1])], dtype=complex))
        h = convolve(f, g)
        hm = fm @ gm
        for (i, j), a in idx.items():
            assert h.values[a] == hm[i, j]


def test_unit_supported_functions_convolve_pointwise():
    G = pair_groupoid(3)
    rng = np.random.default_rng(5)
    f = np.zeros(G.n_arrows, dtype=complex)
    g = np.zeros(G.n_arrows, dtype=complex)
    for u in G.units:
        f[u] = rng.standard_normal()
        g[u] = rng.standard_normal()
    h = convolve(GroupoidFunction(G, f), GroupoidFunction(G, g))
    assert np.allclose(h.values, f * g, atol=1e-12)


def test_involution_on_deltas_and_real_unit_functions():
    G = pair_groupoid(2)
    for a in G.arrows():
        assert involution(delta(G, a)).close_to(delta(G, G.inv[a]))
    f = np.zeros(G.n_arrows, dtype=complex)
    for u in G.units:
        f[u] = 2.5
    fn = GroupoidFunction(G, f)
    assert involution(fn).close_to(fn)


def test_involution_is_anti_multiplicative():
    S = validate_inverse_semigroup(B2_TABLE)
    G = germ_groupoid(universal_action(S)).groupoid
    rng = np.random.default_rng(17)
    for _ in range(20):
        f, g = random_function(G, rng), random_function(G, rng)
        lhs = involution(convolve(f, g))
        rhs = convolve(involution(g), involution(f))
        assert lhs.close_to(rhs, tol=1e-12)


def test_convolution_associative_exactly_on_integer_functions():
    G = germ_groupoid(universal_action(diamond_munn())).groupoid
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_function(G, rng, integral=True)
        g = random_function(G, rng, integral=True)
        h = random_function(G, rng, integral=True)
        left = convolve(convolve(f, g), h)
        right = convolve(f, convolve(g, h))
        assert (left.values == right.values).all()


def test_regular_representation_is_multiplicative_and_star_preserving():
    G = germ_groupoid(universal_action(validate_inverse_semigroup(B2_TABLE))).groupoid
    rng = np.random.default_rng(23)
    f, g = random_function(G, rng), random_function(G, rng)
    rf, rg = regular_representation(G, f), regular_representation(G, g)
    rfg = regular_representation(G, convolve(f, g))
    for bf, bg, bfg in zip(rf.blocks, rg.blocks, rfg.blocks):
        assert np.allclose(bf @ bg, bfg, atol=1e-12)
    rstar = regular_representation(G, involution(f))
    for bf, bs in zip(rf.blocks, rstar.blocks):
        assert np.allclose(bs, bf.conj().T, atol=1e-12)


def test_norm_of_unit_delta_is_one():
    G = pair_groupoid(2)
    for u in G.units:
        assert reduced_norm(G, delta(G, u)) == pytest.approx(1.0, abs=1e-12)


def test_norm_of_all_ones_on_pair_groupoid_is_two():
    G = pair_groupoid(2)
    f = GroupoidFunction(G, np.ones(4, dtype=complex))
    assert reduced_norm(G, f) == pytest.approx(2.0, abs=1e-9)


def test_norm_of_identity_plus_generator_on_z2_is_two():
    G = group_as_groupoid([[0, 1], [1, 0]])
    f = GroupoidFunction(G, np.array([1.0, 1.0], dtype=complex))
    assert reduced_norm(G, f) == pytest.approx(2.0, abs=1e-9)


def test_cstar_identity_on_random_functions():
    for G in (pair_groupoid(3),
              germ_groupoid(universal_action(diamond_munn())).groupoid):
        rng = np.random.default_rng(29)
        for _ in range(25):
            f = random_function(G, rng)
            n1 = reduced_norm(G, convolve(involution(f), f))
            n2 = reduced_norm(G, f) ** 2
            assert abs(n1 - n2) <= 1e-9 * max(1.0, n2)


def test_embed_of_whole_groupoid_is_identity():
    # H = G requires G itself to be a group bundle
    from test_congruences import CHAIN_ID_TABLE

    G = germ_groupoid(universal_action(validate_inverse_semigroup(CHAIN_ID_TABLE))).groupoid
    emb = embedded(G, G.arrows())
    rng = np.random.default_rng(31)
    f = random_function(emb.groupoid, rng)
    ext = embed(emb, f)
    assert np.allclose(sorted(ext.values, key=abs), sorted(f.values, key=abs))
    assert reduced_norm(G, ext) == pytest.approx(reduced_norm(emb.groupoid, f), abs=1e-9)


def test_embed_units_of_pair_groupoid_is_isometric_star_hom():
    G = pair_groupoid(2)
    emb = embedded(G, G.units)
    rng = np.random.default_rng(37)
    for _ in range(25):
        f = random_function(emb.groupoid, rng)
        g = random_function(emb.groupoid, rng)
        assert embed(emb, convolve(f, g)).close_to(
            convolve(embed(emb, f), embed(emb, g)), tol=1e-12)
        assert embed(emb, involution(f)).close_to(involution(embed(emb, f)), tol=1e-12)
        assert abs(reduced_norm(G, embed(emb, f))
                   - reduced_norm(emb.groupoid, f)) <= 1e-9


def test_embed_rejects_non_normal_bundle():
    G, idx = product_pair_z2()
    bad = embedded(G, [idx[(0, 0, 0)], idx[(0, 0, 1)], idx[(1, 1, 0)]])
    rng = np.random.default_rng(41)
    with pytest.raises(HypothesisFailed) as err:
        embed(bad, random_function(bad.groupoid, rng))
    assert err.value.name == "normal"


def test_embed_centralizer_germs_is_isometric_for_corpus_samples():
    for S in (validate_inverse_semigroup(B2_TABLE), diamond_munn()):
        germs = germ_groupoid(universal_action(S))
        emb = centralizer_germs(germs)
        rng = np.random.default_rng(43)
        for _ in range(10):
            f = random_function(emb.groupoid, rng)
            assert abs(reduced_norm(germs.groupoid, embed(emb, f))
                       - reduced_norm(emb.groupoid, f)) <= 1e-9


def test_conditional_expectation_restriction_cases():
    G = pair_groupoid(2)
    emb = embedded(G, G.units)
    rng = np.random.default_rng(47)
    f = random_function(emb.groupoid, rng)
    assert conditional_expectation(emb, embed(emb, f)).close_to(f)
    for a in G.arrows():
        phi = conditional_expectation(emb, delta(G, a))
        if a in emb.arrows:
            assert np.max(np.abs(phi.values)) == 1.0
        else:
            assert np.max(np.abs(phi.values)) == 0.0


def test_conditional_expectation_is_idempotent_and_bimodular():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    emb = centralizer_germs(germs)
    G = germs.groupoid
    rng = np.random.default_rng(53)
    for _ in range(15):
        f = random_function(G, rng)
        once = conditional_expectation(emb, f)
        twice = conditional_expectation(emb, embed(emb, once))
        assert once.close_to(twice, tol=1e-12)
        a, b = random_function(emb.groupoid, rng), random_function(emb.groupoid, rng)
        lhs = conditional_expectation(
            emb, convolve(convolve(embed(emb, a), f), embed(emb, b)))
        rhs = convolve(convolve(a, once), b)
        assert lhs.close_to(rhs, tol=1e-12)


def test_conditional_expectation_is_faithful():
    S = validate_inverse_semigroup(B2_TABLE)
    germs = germ_groupoid(universal_action(S))
    emb = centralizer_germs(germs)
    G = germs.groupoid
    rng = np.random.default_rng(59)
    for _ in range(20):
        f = random_function(G, rng)
        phi = conditional_expectation(emb, convolve(involution(f), f))
        if np.max(np.abs(f.values)) > 1e-12:
            assert np.max(np.abs(phi.values)) > 1e-12
    zero = GroupoidFunction(G, np.zeros(G.n_arrows, dtype=complex))
    phi = conditional_expectation(emb, convolve(involution(zero), zero))
    assert np.max(np.abs(phi.values), initial=0.0) == 0.0


def test_groupoid_mismatch_is_flagged():
    G1, G2 = pair_groupoid(2), pair_groupoid(2)
    f = delta(G1, 0)
    g = delta(G2, 0)
    with pytest.raises(GroupoidMismatch):
        convolve(f, g)


# ---------------------------------------------------------------------------
# bit-exactness against the pure-Python loops the array code replaced


def _reference_convolve(f, g):
    G = f.groupoid
    out = np.zeros(G.n_arrows, dtype=np.complex128)
    for (a, b), c in G.comp.items():
        out[c] += f.values[a] * g.values[b]
    return out


def _reference_involution(f):
    G = f.groupoid
    return np.array([np.conj(f.values[G.inv[a]]) for a in G.arrows()])


def _reference_regular_blocks(G, f):
    out = []
    for u in G.units:
        fiber = G.d_fiber(u)
        m = np.zeros((len(fiber), len(fiber)), dtype=np.complex128)
        for col, b in enumerate(fiber):
            for row, a in enumerate(fiber):
                m[row, col] = f.values[G.comp[(a, G.inv[b])]]
        out.append((fiber, m))
    return out


def _reference_embed(emb, f):
    out = np.zeros(emb.parent.n_arrows, dtype=np.complex128)
    for sub_arrow, parent_arrow in enumerate(emb.to_parent):
        out[parent_arrow] = f.values[sub_arrow]
    return out


def _reference_expectation(emb, f):
    return np.array([f.values[parent_arrow] for parent_arrow in emb.to_parent],
                    dtype=np.complex128)


def _same_bits(new: np.ndarray, ref: np.ndarray) -> bool:
    """Equal arrays down to the last bit (so also the sign of every zero)."""
    return (new.shape == ref.shape and new.dtype == ref.dtype
            and new.tobytes() == ref.tobytes())


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_array_algebra_is_bit_identical_to_the_reference_loops(name):
    germs = germ_groupoid(universal_action(builtin(name)))
    G = germs.groupoid
    emb = centralizer_germs(germs)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for integral in (False, True, False, True):
        f = random_function(G, rng, integral=integral)
        g = random_function(G, rng, integral=integral)
        h = random_function(emb.groupoid, rng, integral=integral)
        assert _same_bits(convolve(f, g).values, _reference_convolve(f, g))
        assert _same_bits(involution(f).values, _reference_involution(f))
        rep = regular_representation(G, f)
        ref = _reference_regular_blocks(G, f)
        assert rep.fibers == tuple(fiber for fiber, _ in ref)
        assert all(_same_bits(block, m) for block, (_, m) in zip(rep.blocks, ref))
        assert _same_bits(embed(emb, h).values, _reference_embed(emb, h))
        assert _same_bits(conditional_expectation(emb, f).values,
                          _reference_expectation(emb, f))


def test_bundle_hypotheses_are_checked_once_per_embedding(monkeypatch):
    calls = []
    real = algebra.subgroupoid_properties

    def counting(G, subset):
        calls.append(subset)
        return real(G, subset)

    monkeypatch.setattr(algebra, "subgroupoid_properties", counting)
    germs = germ_groupoid(universal_action(diamond_munn()))
    emb = centralizer_germs(germs)
    rng = np.random.default_rng(61)
    for i in range(50):
        embed(emb, random_function(emb.groupoid, rng))
        conditional_expectation(emb, random_function(germs.groupoid, rng))
    assert len(calls) == 1

    G, idx = product_pair_z2()
    bad = embedded(G, [idx[(0, 0, 0)], idx[(0, 0, 1)], idx[(1, 1, 0)]])
    for _ in range(2):
        with pytest.raises(HypothesisFailed) as err:
            embed(bad, delta(bad.groupoid, 0))
        assert err.value.name == "normal"
    assert len(calls) == 2
