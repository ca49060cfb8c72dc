"""Property tests over randomized structures."""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from germlab.actions import action_kernel, germ_groupoid, universal_action
from germlab.algebra import SplitMix64, convolve, involution, random_function, reduced_norm
from germlab.builtins import (
    CORPUS_NAMES,
    chain_semilattice,
    corpus,
    cyclic_group,
    strong_semilattice_of_groups,
)
from germlab.congruences import Relation, kernel_of, mu_relation, quotient
from germlab.congruences import is_fundamental
from germlab.groupoids import is_group_bundle
from germlab.semigroups import centralizer, is_clifford, natural_leq
from germlab.semilattices import (
    all_filters,
    compose_after,
    principal_filter,
    ultrafilters,
    validate_semilattice,
)

from test_algebra import norm_rtol
from test_semilattices import exhaustive_filters, is_filter

CORPUS = dict(corpus())


def meet_closed_semilattice(masks):
    """Meet table of the closure of a set of bitmasks under intersection."""
    closed = set(masks)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                if a & b not in closed:
                    closed.add(a & b)
                    changed = True
    order = sorted(closed)
    index = {m: i for i, m in enumerate(order)}
    meet = [[index[a & b] for b in order] for a in order]
    return validate_semilattice(meet)


@given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
def test_random_semilattice_filters_are_principal_and_closed(masks):
    E = meet_closed_semilattice(masks)
    filters = all_filters(E)
    principal = {principal_filter(E, e) for e in range(E.size) if e != E.zero}
    assert set(filters) == principal
    for F in filters:
        assert is_filter(E, F)


@given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
def test_principal_filters_are_every_filter(masks):
    E = meet_closed_semilattice(masks)
    assert set(exhaustive_filters(E)) == set(all_filters(E))


@given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
def test_random_semilattice_ultrafilters_are_maximal(masks):
    E = meet_closed_semilattice(masks)
    filters = all_filters(E)
    for U in ultrafilters(E):
        assert not any(U < F for F in filters)


def random_chain_clifford(seed):
    rng = random.Random(seed)
    length = rng.randint(2, 3)
    E = chain_semilattice(length)
    orders = [rng.choice([1, 2, 3, 4]) for _ in range(length)]
    groups = [cyclic_group(m).table.tolist() for m in orders]
    links = {}
    down = {}
    for a in range(length - 1, 0, -1):
        m, k = orders[a], orders[a - 1]
        from math import gcd

        g = gcd(m, k)
        c = rng.choice([j * (k // g) for j in range(g)])
        down[a] = tuple((c * x) % k for x in range(m))
        links[(a, a - 1)] = down[a]
    # compose the chain maps for non-adjacent pairs
    for a in range(length - 1, -1, -1):
        for b in range(a - 2, -1, -1):
            upper = links[(a, b + 1)]
            lower = links[(b + 1, b)]
            links[(a, b)] = tuple(lower[x] for x in upper)
    return strong_semilattice_of_groups(E, groups, links)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_strong_semilattice_is_clifford_and_cryptic(seed):
    S = random_chain_clifford(seed)
    assert is_clifford(S)
    assert centralizer(S).all()
    mu = mu_relation(S)
    assert mu == S.h_partition
    assert kernel_of(S, mu).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_clifford_universal_groupoid_is_group_bundle(seed):
    S = random_chain_clifford(seed)
    germs = germ_groupoid(universal_action(S))
    assert is_group_bundle(germs.groupoid)
    assert action_kernel(germs.action).all()


@given(st.sampled_from(CORPUS_NAMES))
def test_corpus_mu_refines_h_and_quotient_fundamental(name):
    S = CORPUS[name]
    mu = mu_relation(S)
    assert Relation(np.stack((mu.labels, S.h_partition.labels), axis=1)) == mu
    assert is_fundamental(quotient(S, mu_relation(S)).target)


@given(st.sampled_from(CORPUS_NAMES))
def test_corpus_kernel_of_mu_is_centralizer(name):
    S = CORPUS[name]
    assert np.array_equal(kernel_of(S, mu_relation(S)), centralizer(S))


@given(st.sampled_from(CORPUS_NAMES), st.integers(min_value=0, max_value=30))
def test_corpus_natural_order_antisymmetric_sampled(name, seed):
    S = CORPUS[name]
    rng = random.Random(seed)
    a, b = rng.randrange(S.size), rng.randrange(S.size)
    if natural_leq(S, a, b) and natural_leq(S, b, a):
        assert a == b


def random_partial_row(rng, n):
    """A random partial bijection of n points as a row, -1 where undefined."""
    row = []
    used = set()
    for x in range(n):
        if rng.random() < 0.5:
            row.append(-1)
            continue
        free = [y for y in range(n) if y not in used]
        if not free:
            row.append(-1)
            continue
        y = rng.choice(free)
        used.add(y)
        row.append(y)
    return np.array(row, dtype=np.intp)


def inverse_row(f):
    out = np.full(f.size, -1, dtype=np.intp)
    out[f[f >= 0]] = np.flatnonzero(f >= 0)
    return out


@given(st.integers(min_value=0, max_value=10**6))
def test_partial_map_composition_associative_and_inverse_laws(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    f, g, h = (random_partial_row(rng, n) for _ in range(3))
    assert (compose_after(compose_after(f, g), h) == compose_after(f, compose_after(g, h))).all()
    f_inv = inverse_row(f)
    assert (compose_after(compose_after(f, f_inv), f) == f).all()
    assert (compose_after(compose_after(f_inv, f), f_inv) == f_inv).all()
    stacked = compose_after(f, np.stack([g, h]))
    assert (stacked == np.stack([compose_after(f, g), compose_after(f, h)])).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_algebra_identities_on_random_functions(seed):
    G = germ_groupoid(universal_action(CORPUS["b2"])).groupoid
    rng = SplitMix64(seed)
    f = random_function(G, rng)
    g = random_function(G, rng)
    assert np.array_equal(involution(convolve(f, g)).values,
                          convolve(involution(g), involution(f)).values)
    n1 = reduced_norm(G, convolve(involution(f), f))
    n2 = reduced_norm(G, f) ** 2
    assert abs(n1 - n2) <= norm_rtol(G) * n2


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_integer_convolution_associates_exactly(seed):
    G = germ_groupoid(universal_action(CORPUS["diamond_munn"])).groupoid
    rng = SplitMix64(seed)
    f = random_function(G, rng)
    g = random_function(G, rng)
    h = random_function(G, rng)
    assert (convolve(convolve(f, g), h).values
            == convolve(f, convolve(g, h)).values).all()
