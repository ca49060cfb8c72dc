import dataclasses
import itertools
import tracemalloc
import zlib
from functools import lru_cache

import numpy as np
import pytest

from germlab import actions, algebra, semigroups
from germlab.actions import (
    EmbeddedSubgroupoid,
    centralizer_germs,
    germ_groupoid,
    tight_action,
    universal_action,
)
from germlab.algebra import (
    GroupoidFunction,
    SplitMix64,
    conditional_expectation,
    convolve,
    delta,
    embed,
    involution,
    random_function,
    random_functions,
    reduced_norm,
    regular_representation,
    spectral_norm,
)
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.errors import GroupoidMismatch, HypothesisFailed, StructureError
from germlab.extensions import Subject
from germlab.groupoids import extract_subgroupoid, group_as_groupoid, make_groupoid
from germlab.semigroups import validate_inverse_semigroup
from germlab.suites import run_checks, run_suite

from test_actions import diamond_munn
from test_congruences import _relabelled
from test_generator_certificates import relabeled_union
from test_groupoids import Z3_TABLE, edited_table, pair_groupoid
from test_order_congruence_tables import LADDER, subject
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
    table = np.full((8, 8), -1)
    for i in range(2):
        for j in range(2):
            for g in range(2):
                for k in range(2):
                    for h in range(2):
                        table[idx[(i, j, g)], idx[(j, k, h)]] = idx[(i, k, g ^ h)]
    return make_groupoid(r, d, inv, table), idx


def embedded(parent, arrows):
    inside = np.zeros(parent.n_arrows, dtype=bool)
    inside[list(arrows)] = True
    sub, order = extract_subgroupoid(parent, inside)
    return EmbeddedSubgroupoid(parent, inside, sub, order)


def test_delta_convolution_follows_composition():
    G = pair_groupoid(2)
    for a in G.arrows():
        for b in G.arrows():
            prod = convolve(delta(G, a), delta(G, b))
            if G.d[a] == G.r[b]:
                assert np.array_equal(prod.values, delta(G, G.table[a, b]).values)
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
        assert np.array_equal(involution(delta(G, a)).values, delta(G, G.inv[a]).values)
    f = np.zeros(G.n_arrows, dtype=complex)
    for u in G.units:
        f[u] = 2.5
    fn = GroupoidFunction(G, f)
    assert np.array_equal(involution(fn).values, fn.values)


def test_involution_is_anti_multiplicative():
    S = validate_inverse_semigroup(B2_TABLE)
    G = germ_groupoid(universal_action(S)).groupoid
    rng = SplitMix64(17)
    for _ in range(20):
        f, g = random_function(G, rng), random_function(G, rng)
        lhs = involution(convolve(f, g))
        rhs = convolve(involution(g), involution(f))
        assert np.array_equal(lhs.values, rhs.values)


def test_convolution_associative_exactly_on_integer_functions():
    G = germ_groupoid(universal_action(diamond_munn())).groupoid
    rng = SplitMix64(3)
    for _ in range(10):
        f = random_function(G, rng)
        g = random_function(G, rng)
        h = random_function(G, rng)
        left = convolve(convolve(f, g), h)
        right = convolve(f, convolve(g, h))
        assert (left.values == right.values).all()


def test_regular_representation_is_multiplicative_and_star_preserving():
    G = germ_groupoid(universal_action(validate_inverse_semigroup(B2_TABLE))).groupoid
    rng = SplitMix64(23)
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


def test_embed_of_whole_groupoid_is_identity():
    # H = G requires G itself to be a group bundle
    from test_congruences import CHAIN_ID_TABLE

    G = germ_groupoid(universal_action(validate_inverse_semigroup(CHAIN_ID_TABLE))).groupoid
    emb = embedded(G, G.arrows())
    rng = SplitMix64(31)
    f = random_function(emb.groupoid, rng)
    ext = embed(emb, f)
    assert np.allclose(sorted(ext.values, key=abs), sorted(f.values, key=abs))
    assert reduced_norm(G, ext) == pytest.approx(reduced_norm(emb.groupoid, f), abs=1e-9)


def test_embed_units_of_pair_groupoid_is_isometric_star_hom():
    G = pair_groupoid(2)
    emb = embedded(G, G.units)
    rng = SplitMix64(37)
    for _ in range(25):
        f = random_function(emb.groupoid, rng)
        g = random_function(emb.groupoid, rng)
        assert np.array_equal(embed(emb, convolve(f, g)).values,
                              convolve(embed(emb, f), embed(emb, g)).values)
        assert np.array_equal(embed(emb, involution(f)).values, involution(embed(emb, f)).values)
        assert abs(reduced_norm(G, embed(emb, f))
                   - reduced_norm(emb.groupoid, f)) <= 1e-9


def test_embed_rejects_non_normal_bundle():
    G, idx = product_pair_z2()
    bad = embedded(G, [idx[(0, 0, 0)], idx[(0, 0, 1)], idx[(1, 1, 0)]])
    rng = SplitMix64(41)
    with pytest.raises(HypothesisFailed) as err:
        embed(bad, random_function(bad.groupoid, rng))
    assert err.value.name == "normal"


def test_embed_centralizer_germs_is_isometric_for_corpus_samples():
    for S in (validate_inverse_semigroup(B2_TABLE), diamond_munn()):
        germs = germ_groupoid(universal_action(S))
        emb = centralizer_germs(germs)
        rng = SplitMix64(43)
        for _ in range(10):
            f = random_function(emb.groupoid, rng)
            assert abs(reduced_norm(germs.groupoid, embed(emb, f))
                       - reduced_norm(emb.groupoid, f)) <= 1e-9


def test_conditional_expectation_restriction_cases():
    G = pair_groupoid(2)
    emb = embedded(G, G.units)
    rng = SplitMix64(47)
    f = random_function(emb.groupoid, rng)
    assert np.array_equal(conditional_expectation(emb, embed(emb, f)).values, f.values)
    for a in G.arrows():
        phi = conditional_expectation(emb, delta(G, a))
        if emb.arrows[a]:
            assert np.max(np.abs(phi.values)) == 1.0
        else:
            assert np.max(np.abs(phi.values)) == 0.0


def test_conditional_expectation_is_idempotent_and_bimodular():
    S = diamond_munn()
    germs = germ_groupoid(universal_action(S))
    emb = centralizer_germs(germs)
    G = germs.groupoid
    rng = SplitMix64(53)
    for _ in range(15):
        f = random_function(G, rng)
        once = conditional_expectation(emb, f)
        twice = conditional_expectation(emb, embed(emb, once))
        assert np.array_equal(once.values, twice.values)
        a, b = random_function(emb.groupoid, rng), random_function(emb.groupoid, rng)
        lhs = conditional_expectation(
            emb, convolve(convolve(embed(emb, a), f), embed(emb, b)))
        rhs = convolve(convolve(a, once), b)
        assert np.array_equal(lhs.values, rhs.values)


def test_conditional_expectation_is_faithful():
    S = validate_inverse_semigroup(B2_TABLE)
    germs = germ_groupoid(universal_action(S))
    emb = centralizer_germs(germs)
    G = germs.groupoid
    rng = SplitMix64(59)
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
    for a, b, c in G.comp.tolist():
        out[c] += f.values[a] * g.values[b]
    return out


def _reference_involution(f):
    G = f.groupoid
    return np.array([np.conj(f.values[G.inv[a]]) for a in G.arrows()])


def _reference_regular_blocks(G, f):
    out = []
    for u in G.units:
        fiber = tuple(np.flatnonzero(G.d == u).tolist())
        m = np.zeros((len(fiber), len(fiber)), dtype=np.complex128)
        for col, b in enumerate(fiber):
            for row, a in enumerate(fiber):
                m[row, col] = f.values[G.table[a, G.inv[b]]]
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
def test_array_algebra_is_bit_identical_to_the_reference_loops(name, monkeypatch):
    germs = germ_groupoid(universal_action(builtin(name)))
    G = germs.groupoid
    emb = centralizer_germs(germs)
    rng = SplitMix64(zlib.crc32(name.encode()))
    for _ in range(4):
        f, g = random_function(G, rng), random_function(G, rng)
        h = random_function(emb.groupoid, rng)
        assert _same_bits(convolve(f, g).values, _reference_convolve(f, g))
        assert _same_bits(involution(f).values, _reference_involution(f))
        rep = regular_representation(G, f)
        ref = _reference_regular_blocks(G, f)
        assert len(rep.blocks) == len(ref)
        assert all(_same_bits(block, m) for block, (_, m) in zip(rep.blocks, ref))
        assert _same_bits(embed(emb, h).values, _reference_embed(emb, h))
        assert _same_bits(conditional_expectation(emb, f).values,
                          _reference_expectation(emb, f))

    # each row of a stack equals the 1-D call and the reference loop, also
    # across chunk boundaries: 7 rows in chunks of 3 + 3 + 1, first for the
    # products of the largest fiber size, then for the SVD of the largest
    # block shape
    widths = (max(idx.size for _, idx in G.fibers_by_size),
              max(idx.size for idx, _, _ in G.fiber_stacks))
    for width in widths:
        monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 3 * width)
        f, g = random_functions(rng, 7, G, G)
        (h,) = random_functions(rng, 7, emb.groupoid)
        stacks = (convolve(f, g), involution(f), embed(emb, h),
                  conditional_expectation(emb, f))
        norms = reduced_norm(G, f)
        for i in range(7):
            fi, gi, hi = (GroupoidFunction(x.groupoid, x.values[i]) for x in (f, g, h))
            rows = (convolve(fi, gi), involution(fi), embed(emb, hi),
                    conditional_expectation(emb, fi))
            assert all(_same_bits(stack.values[i], row.values)
                       for stack, row in zip(stacks, rows))
            assert _same_bits(stacks[0].values[i], _reference_convolve(fi, gi))
            assert _same_bits(norms[i], np.float64(reduced_norm(G, fi)))
            first = _reference_orbit_units(G)
            assert reduced_norm(G, fi) == max(
                max(_split_block_norms(G, u, fiber, m, sorted(_reference_classes(G, u))))
                for u, (fiber, m) in zip(G.units, _reference_regular_blocks(G, fi)) if u in first)


# ---------------------------------------------------------------------------
# one block per orbit: the blocks of an orbit are permutation-similar

RELABELLED_S4 = "symmetric:4 relabelled"
ORBIT_SUBJECTS = CORPUS_NAMES + LADDER + (RELABELLED_S4,)
# |orbit norm - all-unit norm| in ulps of the norm; the largest seen on the
# subjects below is 9 (group:z70, 70 moduli after a DFT of length 70), far
# inside norm_rtol, which is 1.6e5 ulps at norm 1 on group:z70
ORBIT_NORM_ULPS = 16
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def norm_rtol(G):
    """The relative tolerance of a comparison between computed norms on G:
    64 s^2 u, s the largest d-fiber, u the unit roundoff.

    A block of fiber size s = r o is split by a DFT of length o into r x r
    blocks B_t.  Each entry of B_t sums o products with rounded roots of
    unity, so it is within gamma_(o+3) of the sum of the moduli (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, sections 3.1
    and 3.6); the matrix of those sums has Frobenius norm at most sqrt(s)
    times the block's norm, so B_t moves by at most (o + 3) sqrt(s) u
    relative, below 4 s^2 u.  Its norm, the square root of the top
    eigenvalue of the Gram matrix, adds a relative O(r u): r gamma_r from
    the product (section 3.5) and the backward error of ``eigvalsh``, by
    Weyl's inequality, both below 4 s^2 u with LAPACK's modest constants.
    So a computed norm is within 8 s^2 u of the exact one, a square of it
    within 16 s^2 u, and two such values of one exact number within
    32 s^2 u: the tolerance keeps a factor 2 over that.  On group:z70 it is
    3.5e-11, on symmetric:4 (s = 24) 4.1e-12."""
    return 64 * np.bincount(G.d).max() ** 2 * UNIT_ROUNDOFF


@lru_cache(maxsize=None)
def _germ_groupoids(name):
    """The universal and the tight germ groupoid of a corpus or ladder subject."""
    S = _relabelled(builtin("symmetric:4"), 3) if name == RELABELLED_S4 else subject(name)
    return tuple(germ_groupoid(action(S)).groupoid for action in (universal_action, tight_action))


@pytest.mark.parametrize("name", ("pair:3",) + ORBIT_SUBJECTS)
def test_cstar_identity_on_random_functions(name):
    """The float C*-identity that the certificate implies: on 100 seeded
    Gaussian-integer functions, ||f^* f|| = ||f||^2 to ``norm_rtol``, on the
    pair groupoid of 3 points and on both germ groupoids of every orbit
    subject; the certificate passes on each."""
    groupoids = (pair_groupoid(3),) if name == "pair:3" else _germ_groupoids(name)
    for G in groupoids:
        (f,) = random_functions(SplitMix64(29), 100, G)
        n1 = reduced_norm(G, convolve(involution(f), f))
        n2 = reduced_norm(G, f) ** 2
        assert (np.abs(n1 - n2) <= norm_rtol(G) * n2).all(), name
        assert algebra.star_representation_defect(G) is None, name


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_centralizer_embedding_on_random_functions(name):
    """The float isometry and the exact *-homomorphism that the embedding's
    certificate implies: on 100 seeded Gaussian-integer functions f, g on
    the centralizer bundle H of the universal groupoid G,
    ||embed f||_G = ||f||_H to ``norm_rtol``, embed(f g) = embed f embed g
    and embed(f^*) = (embed f)^* exactly; the certificate passes."""
    S = _relabelled(builtin("symmetric:4"), 3) if name == RELABELLED_S4 else subject(name)
    emb = centralizer_germs(germ_groupoid(universal_action(S)))
    G, H = emb.parent, emb.groupoid
    f, g = random_functions(SplitMix64(zlib.crc32(name.encode())), 100, H, H)
    ef = embed(emb, f)
    n1, n2 = reduced_norm(G, ef), reduced_norm(H, f)
    assert (np.abs(n1 - n2) <= norm_rtol(G) * n2).all(), name
    assert np.array_equal(embed(emb, convolve(f, g)).values,
                          convolve(ef, embed(emb, g)).values), name
    assert np.array_equal(embed(emb, involution(f)).values, involution(ef).values), name
    assert algebra.embedding_defect(emb) is None, name


def _symmetric3_groupoid():
    """A fresh Subject of ``symmetric:3``, its universal groupoid with the
    blocks computed and the inverses and table copied for a test to
    corrupt, and the block at unit 9: blocks of shapes (3, 3, 1) at unit 0,
    (3, 3, 2) at unit 9 and (2, 2, 3) at unit 27."""
    sub = Subject(builtin("symmetric:3"))
    G = sub.beta.groupoid
    assert [(stack.shape[1:], units.tolist()) for stack, _, units in G.fiber_stacks] \
        == [((3, 3, 1), [0]), ((3, 3, 2), [9]), ((2, 2, 3), [27])]
    G.inv, G.table = G.inv.copy(), G.table.copy()
    return sub, G, G.fiber_stacks[1][0][0]     # the block at unit 9


def _swap_two_entries(G, I):
    I[0, 0, 0], I[0, 1, 0] = I[0, 1, 0], I[0, 0, 0]
    return "star fails at unit 9: inv I[0,0,0] != I[0,0,0]"


def _corrupt_inverse(G, I):
    G.inv[I[0, 0, 1]] = 9
    return "star fails at unit 9: inv I[0,0,1] != I[0,0,1]"


def _corrupt_product(G, I):
    G.table[I[1, 2, 1], I[2, 0, 1]] = I[1, 0, 1]
    return "product fails at unit 9: I[1,2,1] I[2,0,1] != I[1,0,0]"


def _repeat_row_entry(G, I):
    I[0, 1, 0] = I[0, 0, 0]
    return "star fails at unit 9: inv I[0,1,0] != I[1,0,0]"


def _collapse_to_the_unit(G, I):
    """Every entry the unit: a *-map and multiplicative, but rows repeat."""
    I[...] = 9
    return "row repeats at unit 9: I[0,0,0] = I[0,0,1] = arrow 9"


def _leave_the_arrows(G, I):
    I[2, 1, 1] = -1
    return "not an arrow at unit 9: I[2,1,1] = -1"


def _extra_factorization(G, I):
    """A product defined on a pair that does not compose: the arrow gets a
    factorization that no block accounts for."""
    a, b = np.argwhere(G.table < 0)[0]
    G.table[a, b] = I[0, 0, 1]
    return f"sum incomplete at unit 9: arrow {I[0, 0, 1]} has 7 factorizations, not 6"


@pytest.mark.parametrize("mutate", [_swap_two_entries, _corrupt_inverse, _corrupt_product,
                                    _repeat_row_entry, _collapse_to_the_unit,
                                    _leave_the_arrows, _extra_factorization])
def test_cstar_certificate_names_the_first_failing_index_tuple(mutate):
    """Each corruption of the index arrays the norm reads, of the inverses
    or of the table fails the certificate, whose witness names the
    representative, the condition and the first failing tuple; the
    algebra suite's check reports that witness."""
    sub, G, I = _symmetric3_groupoid()
    assert algebra.star_representation_defect(G) is None
    witness = mutate(G, I)
    assert algebra.star_representation_defect(G) == witness
    [result] = run_checks(sub, "algebra.cstar_identity")
    assert (result.passed, result.witness) == (False, witness)


def test_cstar_certificate_refuses_an_arrow_indexed_at_two_units():
    """``clifford_chain:identity`` has two representatives, units 0 and 2,
    with blocks of one shape; a copy of the first block at the second is a
    *-homomorphic block by itself, but indexes the first one's arrows."""
    G = germ_groupoid(universal_action(builtin("clifford_chain:identity"))).groupoid
    ((stack, _, units),) = G.fiber_stacks
    assert units.tolist() == [0, 2] and algebra.star_representation_defect(G) is None
    stack[1] = stack[0]
    assert algebra.star_representation_defect(G) == "arrow 0 indexed at units 0 and 2"


def _brandt_bundle():
    """A fresh Subject of ``brandt_z2`` and its centralizer bundle, the
    hypotheses decided, the arrays a test corrupts copied, and nothing that
    reads them cached.  G has units 0, 2 and 6: the group Z2 = {0, 1} at 0,
    and the Brandt groupoid over Z2 on {2, 6}, with arrows 2, 3 at 2, 6, 7
    at 6, and 4, 5 from 2 to 6 inverse to 8, 9.  H is the isotropy, G's
    arrows 0, 1, 2, 3, 6, 7 as H's 0 to 5, with units 0, 2 and 4.  The
    fiber of unit 2 is 2, 3, 4, 5, in classes {2, 3} and {4, 5}; that of
    unit 6 is 6, 7, 8, 9, in classes {6, 7} and {8, 9}."""
    sub = Subject(builtin("brandt_z2"))
    emb = sub.z_in_beta
    G, H = emb.parent, emb.groupoid
    assert emb.to_parent.tolist() == [0, 1, 2, 3, 6, 7] and H.units.tolist() == [0, 2, 4]
    assert emb.properties.normal and not {"fibers_by_size", "unit_mask"} & H.__dict__.keys()
    G.table, H.inv, H.table = G.table.copy(), H.inv.copy(), H.table.copy()
    emb.to_parent = emb.to_parent.copy()
    return sub, emb


def test_the_algebra_refuses_a_groupoid_whose_units_miss_a_source():
    """``brandt_z2``'s centralizer bundle with unit 4 left out of ``units``:
    the listed units' fibers miss arrows 4 and 5, which convolve would
    otherwise leave uninitialized, and the regular representation and its
    norm would leave out (2 blocks instead of 3, norm 2.0).  All three
    raise the same error."""
    H = dataclasses.replace(_brandt_bundle()[1].groupoid, units=np.array([0, 2]))
    ones = GroupoidFunction(H, np.ones(H.n_arrows))
    for call in (lambda: convolve(ones, ones), lambda: regular_representation(H, ones),
                 lambda: reduced_norm(H, ones)):
        with pytest.raises(StructureError,
                           match="^arrow 4 has source 4, which is not a listed unit$"):
            call()


def _map_off_h(emb):
    emb.to_parent[4] = 4
    return "H arrow 4 maps to 4, not an arrow of the subgroupoid"


def _map_twice(emb):
    emb.to_parent[1] = 0
    return "H arrows 0 and 1 both map to 0"


def _corrupt_h_inverse(emb):
    emb.groupoid.inv[1] = 0
    return "star fails at H arrow 1: inv 1 = 1, not 0"


def _corrupt_h_product(emb):
    emb.groupoid.table[2, 3] = 2
    return "product fails at H arrows (2,3): 3 in G, not 2"


def _corrupt_class_block(emb):
    """9 9^-1 = 2, inside the class {8, 9} at unit 6, becomes 3."""
    emb.parent.table[9, 5] = 3
    return "class block fails at unit 6: 9 9^-1 is H arrow 3, not 2"


def _corrupt_class_lead(emb):
    """8 8^-1 = 2, at the lead of the class {8, 9}, becomes 3, which 9 8^-1
    already lists."""
    emb.parent.table[8, 4] = 3
    return "class of 8 at unit 6 does not list H's fiber at unit 2"


def _join_two_classes(emb):
    """2 4^-1 = 8 at unit 2, across the classes {2, 3} and {4, 5}, becomes
    the unit 2 of H."""
    emb.parent.table[2, 8] = 2
    return "cosets fail at unit 2: 2 4^-1 is in H across classes"


def _unmapped_arrow(emb):
    """G's arrow 4 joins the subgroupoid's mask, but no H arrow maps to it."""
    emb.arrows = emb.arrows.copy()
    emb.arrows[4] = True
    return "arrow 4 of the subgroupoid is the image of no H arrow"


def _unreached_unit(emb):
    emb.groupoid.units = np.append(emb.groupoid.units, 1)
    return "H unit 1 is reached by no class"


def _dropped_unit(emb):
    emb.groupoid.units = np.array([0, 2])
    return "H arrow 4 is a class's range but not a unit of H"


@pytest.mark.parametrize("mutate", [_map_off_h, _map_twice, _unmapped_arrow, _corrupt_h_inverse,
                                    _corrupt_h_product, _corrupt_class_block,
                                    _corrupt_class_lead, _join_two_classes,
                                    _unreached_unit, _dropped_unit])
def test_embedding_certificate_names_the_first_failure(mutate):
    """Each corruption of the map into G, of H's inverses or table, of G's
    table inside or across the classes of a fiber, or of H's units fails
    the certificate, whose witness names the arrow, the pair or the class;
    the algebra suite's check reports that witness.  Uncorrupted, both
    pass."""
    sub, emb = _brandt_bundle()
    witness = mutate(emb)
    assert algebra.embedding_defect(emb) == witness
    [result] = run_checks(sub, "algebra.embedding_isometric")
    assert (result.passed, result.witness) == (False, witness)
    sub, emb = _brandt_bundle()
    assert algebra.embedding_defect(emb) is None
    [result] = run_checks(sub, "algebra.embedding_isometric")
    assert (result.passed, result.witness) == (True, "units certified: 3, bundle blocks: 5")


def _extra_unit_factorization(emb):
    """0 4 = 0 on a pair that does not compose: unit 0 gains a third
    factorization."""
    emb.parent.table[0, 4] = 0


EXPECTATION = ("algebra.conditional_expectation", algebra.expectation_defect)
FAITHFUL = ("algebra.expectation_faithful", algebra.faithfulness_defect)
CERTIFICATE_MUTATIONS = [
    (EXPECTATION, _map_twice, "H arrows 0 and 1 both map to 0"),
    (EXPECTATION, _unmapped_arrow, "arrow 4 of the subgroupoid is the image of no H arrow"),
    (EXPECTATION, _corrupt_h_product, "product fails at H arrows (2,3): 3 in G, not 2"),
    (EXPECTATION, _dropped_unit, "units fail at H arrow 4: a unit of G only"),
    (EXPECTATION, _unreached_unit, "units fail at H arrow 1: a unit of H only"),
    (EXPECTATION, _join_two_classes, "crossing fails: 2 4^-1 is in H, 4 is not"),
    (FAITHFUL, _map_off_h, "source 6 of arrow 6 is not in the bundle map's image"),
    (FAITHFUL, _corrupt_class_block, "inverse law fails at arrow 5: 9 5 = 3, not 2"),
    (FAITHFUL, _extra_unit_factorization, "unit 0 has 3 factorizations, not 2"),
]


@pytest.mark.parametrize("certificate,mutate,witness", CERTIFICATE_MUTATIONS,
                         ids=[c.__name__ + m.__name__ for (_, c), m, _ in CERTIFICATE_MUTATIONS])
def test_expectation_certificates_name_the_first_failure(certificate, mutate, witness):
    """Each corruption of the map into G, of H's table or units, of G's
    table across a fiber's classes, of an inverse law or of a unit's
    factorization count fails the expectation's or the faithfulness
    certificate with its witness, directly and through its check.
    Uncorrupted, both pass."""
    check, defect = certificate
    sub, emb = _brandt_bundle()
    mutate(emb)
    assert defect(emb) == witness
    [result] = run_checks(sub, check)
    assert (result.passed, result.witness) == (False, witness)
    sub, emb = _brandt_bundle()
    assert algebra.expectation_defect(emb) is None and algebra.faithfulness_defect(emb) is None
    assert all(run_checks(sub, name)[0].passed for name in (EXPECTATION[0], FAITHFUL[0]))


STAR_CHECKS = ("algebra.cstar_identity", "algebra.convolution_associative",
               "algebra.involution_antimultiplicative")


def test_star_certificate_refuses_an_arrow_indexed_at_no_representative():
    """``brandt_z2``'s groupoid with an eleventh arrow 10 that is its own
    range, source and inverse, is in no d-fiber of a unit and composes with
    nothing: no block indexes it, yet the factorization count still
    matches, since the unit law fails there.  The certificate names it, and
    the three checks that read it fail with that witness."""
    sub = Subject(builtin("brandt_z2"))
    G = sub.beta.groupoid
    table = np.full((11, 11), -1)
    table[:10, :10] = G.table
    lone = dataclasses.replace(G, n_arrows=11, r=np.append(G.r, 10), d=np.append(G.d, 10),
                               inv=np.append(G.inv, 10), table=table,
                               labels=G.labels + ("lone",))
    witness = "arrow 10 indexed at no representative"
    assert algebra.star_representation_defect(G) is None
    assert algebra.star_representation_defect(lone) == witness
    sub.beta = dataclasses.replace(sub.beta, groupoid=lone)
    for check in STAR_CHECKS:
        [result] = run_checks(sub, check)
        assert (result.passed, result.witness) == (False, witness), check


@pytest.mark.parametrize("name,edits,error", [
    ("group:z3", {(1, 1): 1}, "no power b^j, j <= 3, of arrow 1 is the unit 0"),
    ("group:z3", {(1, 1): -1}, "the isotropy at unit 0 is not closed in the table"),
    ("group:klein", {(0, 1): 2}, "no conjugate of arrow 1 at unit 0 is a power"),
])
def test_an_isotropy_table_of_no_group_fails_the_star_checks_in_bounded_memory(name, edits,
                                                                             error):
    """One edited entry makes the isotropy table no group's: on ``group:z3``
    with 1 1 = 1 no power of arrow 1 is the unit, and the order search stops
    after |G_x| = 3 columns, where it once doubled a table of powers until
    memory ran out; with 1 1 undefined the table leaves G_x; on
    ``group:klein`` with 0 1 = 2 no conjugate of g is a power of it.  The
    three checks that read the star certificate fail with the error."""
    sub = Subject(builtin(name))
    G = sub.beta.groupoid
    sub.beta = dataclasses.replace(sub.beta, groupoid=dataclasses.replace(
        G, table=edited_table(G.table, edits)))
    tracemalloc.start()
    try:
        results = [run_checks(sub, check)[0] for check in STAR_CHECKS]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [(r.passed, r.witness) for r in results] == [(False, f"error: {error}")] * 3


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_expectation_and_convolution_identities_on_random_functions(name):
    """The sampled identities that the index certificates imply, as the
    algebra suite once drew them: on seeded Gaussian-integer functions the
    expectation E onto the centralizer bundle is idempotent, bimodular and
    restores bundle functions, E(f^* f) vanishes only at f = 0, convolution
    associates and the involution reverses products, all exactly; the
    certificates pass."""
    S = _relabelled(builtin("symmetric:4"), 3) if name == RELABELLED_S4 else subject(name)
    emb = centralizer_germs(germ_groupoid(universal_action(S)))
    G, H = emb.parent, emb.groupoid
    f, g, h, a, b = random_functions(SplitMix64(zlib.crc32(name.encode())), 20, G, G, G, H, H)
    once = conditional_expectation(emb, f)
    assert np.array_equal(conditional_expectation(emb, embed(emb, once)).values, once.values), name
    assert np.array_equal(conditional_expectation(emb, embed(emb, a)).values, a.values), name
    lhs = conditional_expectation(emb, convolve(convolve(embed(emb, a), f), embed(emb, b)))
    assert np.array_equal(lhs.values, convolve(convolve(a, once), b).values), name
    phi = conditional_expectation(emb, convolve(involution(f), f))
    assert (phi.values.any(axis=1) == f.values.any(axis=1)).all(), name
    assert np.array_equal(convolve(convolve(f, g), h).values,
                          convolve(f, convolve(g, h)).values), name
    assert np.array_equal(involution(convolve(f, g)).values,
                          convolve(involution(g), involution(f)).values), name
    assert algebra.expectation_defect(emb) is None and algebra.faithfulness_defect(emb) is None
    assert algebra.star_representation_defect(G) is None, name


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_norm_of_every_delta_is_one_and_of_zero_is_zero(name):
    """Each delta_a is a partial isometry, so its norm is 1 for every arrow
    a, to ORBIT_NORM_ULPS.  The zero function's norm is exactly 0.0, alone
    and as one row of a stack of 7: a Gram eigenvalue that rounds below
    zero is clamped, so no NaN."""
    for G in _germ_groupoids(name):
        norms = reduced_norm(G, GroupoidFunction(G, np.eye(G.n_arrows)))
        assert (np.abs(norms - 1.0) <= ORBIT_NORM_ULPS * np.spacing(1.0)).all(), name
        zero = reduced_norm(G, GroupoidFunction(G, np.zeros(G.n_arrows)))
        assert type(zero) is float and zero == 0.0 and not np.signbit(zero), name
        (f,) = random_functions(SplitMix64(zlib.crc32(name.encode())), 7, G)
        before = reduced_norm(G, f)
        f.values[3] = 0
        norms = reduced_norm(G, f)
        assert norms[3] == 0.0 and not np.signbit(norms[3]), name
        assert _same_bits(np.delete(norms, 3), np.delete(before, 3)), name


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_norm_commutes_with_powers_of_2_far_from_1(name):
    """||2^k f|| = 2^k ||f|| bit for bit at k = -1000 and 1000, where the
    squares of the values under- and overflow: the Gram matrices never see
    them."""
    for G in _germ_groupoids(name):
        (f,) = random_functions(SplitMix64(zlib.crc32(name.encode())), 7, G)
        norms = reduced_norm(G, f)
        for k in (-1000, 1000):
            scaled = reduced_norm(G, GroupoidFunction(G, f.values * 2.0 ** k))
            assert _same_bits(scaled, norms * 2.0 ** k), (name, k)


def _reference_orbit_units(G):
    """The least unit of each orbit: per unit v, the least range of an arrow
    with source v."""
    r, d = G.r.tolist(), G.d.tolist()
    return sorted({min(r[a] for a in G.arrows() if d[a] == v) for v in G.units.tolist()})


def _unit_fibers(G):
    """Per unit, in ``units`` order, its d-fiber as a tuple and the matrix
    [a b^-1] over it (rows a, columns b), read unit by unit from the table."""
    out = {}
    for u in G.units:
        fiber = np.flatnonzero(G.d == u)
        out[u] = (tuple(fiber.tolist()), G.table[fiber[:, None], G.inv[fiber]])
    return out


def _interleaved_sizes():
    """Units 0 to 3 with fibers of sizes 2, 1, 2 and 3: the pair groupoid on
    two points (units 0 and 2), a trivial group (unit 1) and Z3 (unit 3),
    arrows renamed so that the sizes interleave."""
    parts = (pair_groupoid(2), group_as_groupoid([[0]]), group_as_groupoid(Z3_TABLE))
    return relabeled_union(parts, [0, 4, 5, 2, 1, 3, 6, 7])


@pytest.mark.parametrize("name", ORBIT_SUBJECTS + ("interleaved",))
def test_fibers_by_size_equals_the_per_unit_loop(name):
    """``fibers_by_size``, array for array and in order, is the per-unit
    loop's fibers and matrices grouped by size, sizes in order of first
    occurrence and units in ``units`` order within a size: on both germ
    groupoids and the centralizer bundle of every orbit subject, and on a
    groupoid whose fiber sizes interleave (2, 1, 2, 3 over its units)."""
    if name == "interleaved":
        groupoids = (_interleaved_sizes(),)
        assert [len(f) for f, _ in _unit_fibers(groupoids[0]).values()] == [2, 1, 2, 3]
    elif name == RELABELLED_S4:
        groupoids = _germ_groupoids(name)
    else:
        groupoids = _germ_groupoids(name) + (Subject(subject(name)).z_in_beta.groupoid,)
    for G in groupoids:
        by_size = {}
        for fiber, idx in _unit_fibers(G).values():
            fibers, matrices = by_size.setdefault(len(fiber), ([], []))
            fibers.append(fiber)
            matrices.append(idx)
        assert len(G.fibers_by_size) == len(by_size), name
        for (fibers, idx), (s, (ref_fibers, ref_matrices)) in zip(G.fibers_by_size,
                                                                   by_size.items()):
            assert fibers.dtype == np.intp and fibers.shape == (len(ref_fibers), s), name
            assert np.array_equal(fibers, np.array(ref_fibers, dtype=np.intp).reshape(-1, s))
            assert idx.dtype == G.table.dtype and idx.shape == (len(ref_fibers), s, s), name
            assert np.array_equal(idx, np.stack(ref_matrices)), name


def _all_unit_norm(G, f):
    """The largest block norm over every unit, one SVD per unit: the norm
    before it read one block per orbit."""
    fv = f.values.reshape(-1, G.n_arrows)
    return np.max([np.linalg.svd(fv.take(idx, axis=1), compute_uv=False)[:, 0]
                   for _, idx in _unit_fibers(G).values()], axis=0)


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_each_block_is_its_orbit_representatives_block_permuted(name):
    """Per unit v, with u the least unit of its orbit and g an arrow from v
    to u, a -> a g maps the fiber at u onto the fiber at v, and the index
    matrix at v, rows and columns both taken in that order, is u's exactly."""
    for G in _germ_groupoids(name):
        assert G.orbit_units.tolist() == _reference_orbit_units(G)
        r, d, table = G.r.tolist(), G.d.tolist(), G.table.tolist()
        blocks = _unit_fibers(G)
        for v in G.units:
            g = min((a for a in G.arrows() if d[a] == v), key=lambda a: (r[a], a))
            (fiber_u, idx_u), (fiber_v, idx_v) = blocks[r[g]], blocks[v]
            position = {b: i for i, b in enumerate(fiber_v)}
            q = [position[table[a][g]] for a in fiber_u]
            assert sorted(q) == list(range(len(fiber_v))), (name, v)
            assert np.array_equal(idx_v[np.ix_(q, q)], idx_u), (name, v)


def _powers(table, x, a):
    """x, a, a^2, ... up to the last power before x comes back."""
    out = [x]
    while table[out[-1]][a] != x:
        out.append(table[out[-1]][a])
    return out


def _reference_cosets(G, x):
    """At the unit x: g, the least arrow of largest order o in the isotropy
    G_x, and the fiber d^-1(x) as the rows [c_p g^j] of its right cosets,
    c_p the least arrow of its coset, rows ordered by c_p.  Loops over the
    table."""
    r, d, table = G.r.tolist(), G.d.tolist(), G.table.tolist()
    fiber = [a for a in G.arrows() if d[a] == x]
    g = min((a for a in fiber if r[a] == x), key=lambda a: (-len(_powers(table, x, a)), a))
    cyclic = _powers(table, x, g)
    reps = sorted({min(table[a][h] for h in cyclic) for a in fiber})
    return g, len(cyclic), [[table[c][h] for h in cyclic] for c in reps]


def _reference_classes(G, x):
    """At the unit x, with g and o from ``_reference_cosets``: K, the k with
    h^-1 g h = g^k for some h in the isotropy G_x, and the classes
    {k t mod o : k in K} of Z/o, as a dict from each class's least member
    to its members.  Loops over the table."""
    r, d, inv, table = G.r.tolist(), G.d.tolist(), G.inv.tolist(), G.table.tolist()
    g, o, _ = _reference_cosets(G, x)
    cyclic = _powers(table, x, g)
    conjugates = [table[table[inv[h]][g]][h] for h in G.arrows() if r[h] == d[h] == x]
    K = {cyclic.index(c) for c in conjugates if c in cyclic}
    classes = {}
    for t in range(o):
        classes.setdefault(min(k * t % o for k in K), []).append(t)
    return classes


def _split_block_norms(G, x, fiber, m, characters):
    """The norms of the blocks B_t, t in characters, of the block m at the
    unit x (rows and columns over the fiber): its circulant entries
    m[c_p g^j, c_q] read into an (r, r, o) array and taken with j first,
    the DFT rows of those t along j as one product when o > 1, then moduli
    when r = 1, else each block's norm sqrt(max(lambda_max(B^* B), 0)) from
    the top eigenvalue of the Gram matrix, each within ORBIT_NORM_ULPS of
    the block's top singular value."""
    _, o, layout = _reference_cosets(G, x)
    r, position = len(layout), {a: i for i, a in enumerate(fiber)}
    split = np.array([[[m[position[layout[p][j]], position[layout[q][0]]] for j in range(o)]
                       for q in range(r)] for p in range(r)])
    split = split.transpose(2, 0, 1).reshape(o, r * r)
    if o > 1:
        split = algebra._dft(o)[list(characters)] @ split
    split = split.reshape(-1, r, r)
    if r == 1:
        return np.abs(split[:, 0, 0]).tolist()
    norms = []
    for t, b in zip(characters, split):
        norm = float(np.sqrt(max(np.linalg.eigvalsh(b.conj().T @ b)[-1], 0.0)))
        svd = spectral_norm(b)
        assert abs(norm - svd) <= ORBIT_NORM_ULPS * np.spacing(svd), (x, t)
        norms.append(norm)
    return norms


def test_dft_matrix_is_exact_at_quarter_turns_and_orthogonal():
    """``_dft(o)`` is [w^(jt)], w = exp(-2 pi i / o), to 1e-15; 1, -i, -1, i
    exactly where 4 j t = 0 mod o; and W W^* = o 1, so W / sqrt(o) is unitary
    and conjugating by it keeps singular values."""
    for o in (1, 2, 3, 4, 6, 8, 12, 70):
        W, k = algebra._dft(o), np.outer(np.arange(o), np.arange(o)) % o
        assert np.abs(W - np.exp(-2j * np.pi * k / o)).max() <= 1e-15
        quarter = 4 * k % o == 0
        assert (W[quarter] == np.array([1, -1j, -1, 1j])[4 * k[quarter] // o]).all()
        assert np.abs(W @ W.conj().T - o * np.eye(o)).max() <= 1e-13


def _fiber_stack_blocks(G):
    """The representatives' (r, r, o) arrays and kept characters out of
    ``fiber_stacks``, with each representative's shape from
    ``_reference_cosets`` and its class minima from ``_reference_classes``:
    the stacks hold them grouped by (shape, kept) in order of first
    occurrence, each with its representatives."""
    keys = {}
    for x in _reference_orbit_units(G):
        _, o, layout = _reference_cosets(G, x)
        key = ((len(layout), len(layout), o), tuple(sorted(_reference_classes(G, x))))
        keys.setdefault(key, []).append(x)
    assert [(stack.shape[1:], tuple(kept.tolist())) for stack, kept, _ in G.fiber_stacks] \
        == list(keys)
    assert [units.tolist() for _, _, units in G.fiber_stacks] == list(keys.values())
    assert [len(stack) for stack, _, _ in G.fiber_stacks] == [len(xs) for xs in keys.values()]
    assert all(kept.dtype == units.dtype == np.intp for _, kept, units in G.fiber_stacks)
    return [(x, block, kept) for stack, kept, units in G.fiber_stacks
            for x, block in zip(units.tolist(), stack)]


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_fiber_stacks_split_each_block_into_circulants(name):
    """At each representative x, with c_0 = min d^-1(x), the arrows
    I[p, 0, j] c_0 = c_p g^j lay out the fiber.  Exactly: g has the largest
    order in G_x, and is the least such; the rows are the right cosets
    c_p <g>, c_p the least of its row, rows increasing, and together they
    partition the fiber; the fiber matrix, rows and columns in that order,
    has I[p, q, (j - l) mod o] at ((p, j), (q, l)); and the layout is the
    loop reference's."""
    for G in _germ_groupoids(name):
        r, d, inv, table = G.r.tolist(), G.d.tolist(), G.inv.tolist(), G.table.tolist()
        matrices = _unit_fibers(G)
        for x, I, _ in _fiber_stack_blocks(G):
            fiber, M = matrices[x]
            rows, _, o = I.shape
            layout = [[table[a][fiber[0]] for a in row] for row in I[:, 0, :].tolist()]
            g = table[inv[layout[0][0]]][layout[0][1]] if o > 1 else x
            assert r[g] == d[g] == x, (name, x)
            orders = {a: len(_powers(table, x, a)) for a in fiber if r[a] == x}
            cyclic = _powers(table, x, g)
            assert len(cyclic) == o == max(orders.values()), (name, x)
            assert g == min(a for a, n in orders.items() if n == o), (name, x)
            assert (g, o, layout) == _reference_cosets(G, x), (name, x)
            assert sorted(a for row in layout for a in row) == list(fiber), (name, x)
            assert all(row == [table[row[0]][h] for h in cyclic] and row[0] == min(row)
                       for row in layout), (name, x)
            assert [row[0] for row in layout] == sorted(row[0] for row in layout)
            position = {a: i for i, a in enumerate(fiber)}
            order = [position[a] for row in layout for a in row]
            p, j, q, l = np.ix_(*(np.arange(n) for n in (rows, o, rows, o)))
            expected = I[p, q, (j - l) % o].reshape(len(fiber), len(fiber))
            assert np.array_equal(M[np.ix_(order, order)], expected), (name, x)


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_kept_characters_are_the_class_minima_and_carry_every_norm(name):
    """At each representative x, ``fiber_stacks`` keeps exactly the least t
    of each class {k t mod o : k in K}, K the k with h^-1 g h = g^k for some
    h in G_x, found by looping over the table; and every block B_t's norm,
    computed as ``_split_block_norms`` does, equals its class minimum's to
    ORBIT_NORM_ULPS, on Gaussian-integer and on normal samples."""
    for G in _germ_groupoids(name):
        matrices = _unit_fibers(G)
        (ints,) = random_functions(SplitMix64(zlib.crc32(name.encode())), 3, G)
        normal = np.random.default_rng(zlib.crc32(name.encode())).standard_normal(
            (2, 3, G.n_arrows))
        samples = np.concatenate([ints.values, normal[0] + 1j * normal[1]])
        for x, I, kept in _fiber_stack_blocks(G):
            classes = _reference_classes(G, x)
            assert kept.tolist() == sorted(classes), (name, x)
            assert sorted(t for ts in classes.values() for t in ts) == list(range(I.shape[2]))
            fiber, idx = matrices[x]
            for values in samples:
                norms = _split_block_norms(G, x, fiber, values.take(idx), range(I.shape[2]))
                for least, ts in classes.items():
                    assert all(abs(norms[t] - norms[least])
                               <= ORBIT_NORM_ULPS * np.spacing(norms[least]) for t in ts), (name, x)


def _frobenius_21():
    """Z7 x| Z3, (a, b)(c, e) = (a + 2^b c, b + e), element (a, b) at 3 a + b."""
    index = {(a, b): 3 * a + b for a in range(7) for b in range(3)}
    return [[index[((a + 2 ** b * c) % 7, (b + e) % 3)] for (c, e) in index] for (a, b) in index]


def _alternating_4():
    """The even permutations of 4 points in lexicographic order, composed."""
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    return [[perms.index(tuple(p[q[i]] for i in range(4))) for q in perms] for p in perms]


@pytest.mark.parametrize("table,shape,classes", [
    # g = (1, 0) has order 7 and (0, 1) conjugates it to g^4: K = {1, 2, 4}
    (_frobenius_21(), (3, 3, 7), {0: [0], 1: [1, 2, 4], 3: [3, 5, 6]}),
    # g of order 3 is not conjugate to g^-1, and its other conjugates lie
    # outside <g>: K = {1}, every character kept
    (_alternating_4(), (4, 4, 3), {0: [0], 1: [1], 2: [2]}),
])
def test_groups_keep_one_character_per_class(table, shape, classes):
    """In a group the one block splits by <g> into o blocks of r x r, and
    ``fiber_stacks`` keeps the least character of each class, here against
    hand-derived classes; the norm read from the kept blocks is the
    block's top singular value to ORBIT_NORM_ULPS."""
    G = group_as_groupoid(table)
    ((I, kept, _),) = G.fiber_stacks
    assert I.shape[1:] == shape and kept.tolist() == sorted(classes)
    assert _reference_classes(G, 0) == classes
    (f,) = random_functions(SplitMix64(len(table)), 20, G)
    every = _all_unit_norm(G, f)
    assert (np.abs(reduced_norm(G, f) - every) <= ORBIT_NORM_ULPS * np.spacing(every)).all()


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_orbit_norm_is_the_all_unit_norm_to_a_few_ulps(name):
    for G in _germ_groupoids(name):
        (ints,) = random_functions(SplitMix64(zlib.crc32(name.encode())), 50, G)
        normal = np.random.default_rng(zlib.crc32(name.encode())).standard_normal(
            (2, 50, G.n_arrows))
        for f in (ints, GroupoidFunction(G, normal[0] + 1j * normal[1])):
            every = _all_unit_norm(G, f)
            assert (np.abs(reduced_norm(G, f) - every)
                    <= ORBIT_NORM_ULPS * np.spacing(every)).all(), name


def _counting(monkeypatch, name):
    """Patch ``np.linalg.<name>`` to record the shape of every matrix it gets."""
    real, shapes = getattr(np.linalg, name), []

    def counting(a, *args, **kwargs):
        shapes.extend([np.shape(a)[-2:]] * int(np.prod(np.shape(a)[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return shapes


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_reduced_norm_decomposes_o_matrices_per_orbit_with_r_above_1(name, monkeypatch):
    """Counts the Gram matrices ``np.linalg.eigvalsh`` receives in one call
    on one function and in one on a stack of 7: per orbit and function, one
    r x r matrix per class of ``_reference_classes`` when r > 1, and none
    when r = 1, where the blocks are 1 x 1 and their norms moduli.
    ``np.linalg.svd`` receives none."""
    shapes, svds = _counting(monkeypatch, "eigvalsh"), _counting(monkeypatch, "svd")
    for G in _germ_groupoids(name):
        expected = []
        for x in _reference_orbit_units(G):
            _, o, layout = _reference_cosets(G, x)
            r = len(layout)
            expected += [(r, r)] * (len(_reference_classes(G, x)) if r > 1 else 0)
        (f,) = random_functions(SplitMix64(5), 7, G)
        for values, rows in ((f.values[0], 1), (f.values, 7)):
            shapes.clear()
            reduced_norm(G, GroupoidFunction(G, values))
            assert sorted(shapes) == sorted(expected * rows), name
    assert svds == [], name


def test_algebra_suite_svds_only_small_blocks(monkeypatch):
    """The algebra suite takes no norm: the C*-identity and the embedding's
    isometry are index certificates.  On ``group:z70`` and ``symmetric:4``
    it calls ``reduced_norm`` zero times and hands ``np.linalg.eigvalsh``
    and ``np.linalg.svd`` no matrix, so no sampled norm creeps back."""
    shapes, svds = _counting(monkeypatch, "eigvalsh"), _counting(monkeypatch, "svd")
    norms = []
    real = algebra.reduced_norm
    monkeypatch.setattr(algebra, "reduced_norm", lambda G, f: norms.append(G) or real(G, f))
    for name in ("group:z70", "symmetric:4"):
        [report] = run_suite(name, builtin(name), "algebra")
        assert report.passed, name
    assert (shapes, svds, norms) == ([], [], [])


def _reference_splitmix(seed, count):
    """The sequential SplitMix64: add the gamma to the state, then mix."""
    mask, state, out = (1 << 64) - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_stacked_draws_equal_sequential_draws():
    """One ``random_functions`` call draws the values of successive
    ``random_function`` calls, row by row, and both draw what the scalar
    reference draws: per arrow one word w of the sequential SplitMix64, as
    floor(7 hi / 2^32) - 3 + (floor(7 lo / 2^32) - 3) i over w's halves."""
    germs = germ_groupoid(universal_action(diamond_munn()))
    G, H = germs.groupoid, centralizer_germs(germs).groupoid
    stacked, single = SplitMix64(29), SplitMix64(29)
    stacks = random_functions(stacked, 5, G, H, H)
    drawn = 5 * (G.n_arrows + 2 * H.n_arrows)
    words = iter(_reference_splitmix(29, drawn + 1))
    for i in range(5):
        for stack in stacks:
            ref = np.array([complex((w >> 32) * 7 >> 32, (w & 0xFFFFFFFF) * 7 >> 32) - (3 + 3j)
                            for w in (next(words) for _ in range(stack.groupoid.n_arrows))])
            assert _same_bits(stack.values[i], ref)
            assert _same_bits(random_function(stack.groupoid, single).values, ref)
    assert stacked.counter == single.counter == drawn
    assert stacked.words(1)[0] == single.words(1)[0] == next(words)


def test_sampler_draws_reproducible_gaussian_integers():
    """SplitMix64's first words from seed 0 are the published ones; draws
    for a seed and k are byte-reproducible; every value has integer parts
    in [-3, 3], and 10^4 draws meet all 49 of them.  A numpy ``Generator``
    seeds a stream with one draw."""
    assert SplitMix64(0).words(3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for seed, k in ((0, 1), (7, 100), (2**64 + 7, 100), (zlib.crc32(b"cstar"), 10**4)):
        draws = SplitMix64(seed).gaussian_integers((k,))
        assert draws.tobytes() == SplitMix64(seed).gaussian_integers((k,)).tobytes()
        parts = np.concatenate([draws.real, draws.imag])
        assert (parts == np.round(parts)).all() and (np.abs(parts) <= 3).all()
    assert len(set(draws.tolist())) == 49
    G = pair_groupoid(2)
    seed = int(np.random.default_rng(1).integers(1 << 63))
    assert _same_bits(random_function(G, np.random.default_rng(1)).values,
                      random_function(G, SplitMix64(seed)).values)


@pytest.mark.parametrize("name", ORBIT_SUBJECTS)
def test_convolution_of_non_integer_values_is_within_the_dot_product_bound(name):
    """On values that are not integers the per-fiber products sum in another
    order than the loop over ``comp``.  Each of the two is within
    gamma_(s+2) sum |f(a)| |g(b)| of the exact value, s the size of the
    fiber, gamma_n = n u / (1 - n u) (Higham 2002, sections 3.1 and 3.6,
    the complex inner product), so they differ by at most twice that."""
    u = np.finfo(np.float64).eps / 2
    for G in _germ_groupoids(name):
        normal = np.random.default_rng(zlib.crc32(name.encode())).standard_normal(
            (2, 2, 3, G.n_arrows))
        f, g = (GroupoidFunction(G, x[0] + 1j * x[1]) for x in normal)
        stack = convolve(f, g).values
        s = np.bincount(G.d, minlength=G.n_arrows)[G.d] + 2
        gamma = s * u / (1 - s * u)
        for i in range(3):
            fi, gi = (GroupoidFunction(G, x.values[i]) for x in (f, g))
            mass = np.zeros(G.n_arrows)
            for a, b, c in G.comp.tolist():
                mass[c] += abs(fi.values[a]) * abs(gi.values[b])
            assert _same_bits(stack[i], convolve(fi, gi).values), name
            assert (np.abs(stack[i] - _reference_convolve(fi, gi))
                    <= 2 * gamma * mass).all(), name


def test_bundle_hypotheses_are_checked_once_per_embedding(monkeypatch):
    calls = []
    real = actions.subgroupoid_properties

    def counting(G, subset):
        calls.append(subset)
        return real(G, subset)

    monkeypatch.setattr(actions, "subgroupoid_properties", counting)
    germs = germ_groupoid(universal_action(diamond_munn()))
    emb = centralizer_germs(germs)
    rng = SplitMix64(61)
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
