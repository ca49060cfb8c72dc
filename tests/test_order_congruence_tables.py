"""The order and congruence layer on the table against the loops it replaced.

Each ``reference_*`` function is the pure-Python form over ``S.mul`` that
the array code in ``semigroups.py`` and ``congruences.py`` replaced, kept
here as the oracle.  Every partition is a ``Relation`` label array; the
references build theirs from one label per element.  The subjects are the
corpus plus the ladder's larger ones: ``symmetric:4``, ``group:z70``,
``symmetric:3 x group:z2`` and a 210-element graph inverse semigroup.
``reference_split_transversal_loop`` is the exception: the explicit
depth-first loop over every class that the forced-class certificate and
the search over the free classes replaced.
"""

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

from germlab import congruences, semigroups
from germlab.actions import (
    DirectedGraph,
    action_kernel,
    graph_inverse_semigroup,
    tight_action,
    universal_action,
)
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.congruences import (
    Relation,
    congruence_witness,
    kernel_of,
    largest_congruence_inside,
    mu_relation,
    quotient,
    random_idempotent_separating_congruences,
    related_products,
    sigma_relation,
    split_transversal,
)
from germlab.errors import NotACongruence, SearchBudgetExceeded, StructureError, ZeroRequired
from germlab.extensions import Subject
from germlab.semigroups import (
    InverseSemigroup,
    centralizer,
    direct_product,
    is_clifford,
    is_e_unitary,
    is_zero_e_unitary,
    normality_defect,
)
from germlab.suites import run_checks

from test_congruences import _labelled_shift, _monomial_closure, _relabelled, generated_congruence

# A 7-vertex acyclic graph whose inverse semigroup has 210 elements and 28
# idempotents, the size of the universal-ladder benchmark's graph subjects.
GRAPH7 = DirectedGraph(7, ((4, 0), (4, 3), (4, 6), (0, 3), (0, 6), (0, 5), (0, 2),
                          (3, 6), (3, 2), (1, 6)))
PRODUCT = "symmetric:3 x group:z2"
LADDER = ("symmetric:4", "group:z70", PRODUCT, "graph7")
SUBJECTS = CORPUS_NAMES + LADDER


@lru_cache(maxsize=None)
def subject(name: str):
    if name == "graph7":
        return graph_inverse_semigroup(GRAPH7)
    if name == PRODUCT:
        return direct_product(builtin("symmetric:3"), builtin("group:z2"))
    return builtin(name)


def reference_leq(S):
    n = S.size
    m = np.zeros((n, n), dtype=bool)
    idems = sorted(S.idempotent_set)
    for t in range(n):
        for e in idems:
            m[S.mul(t, e), t] = True
    return m


def reference_h_partition(S):
    keys = {}
    for s in S.elements():
        k = (S.mul(S.inv[s], s), S.mul(s, S.inv[s]))
        keys.setdefault(k, []).append(s)
    return tuple(sorted(tuple(b) for b in keys.values()))


def reference_is_clifford(S):
    return all(S.mul(S.inv[s], s) == S.mul(s, S.inv[s]) for s in S.elements())


def reference_centralizer(S):
    idems = sorted(S.idempotent_set)
    return frozenset(s for s in S.elements()
                     if all(S.mul(s, e) == S.mul(e, s) for e in idems))


def reference_normality_defect(S, subset):
    if not S.idempotent_set <= subset:
        return f"idempotent {min(S.idempotent_set - subset)} is missing"
    members = sorted(subset)
    for a in members:
        if S.inv[a] not in subset:
            return f"not closed under inverses at {a}"
    for a in members:
        for b in members:
            if S.mul(a, b) not in subset:
                return f"not closed under products at ({a},{b})"
    for s in S.elements():
        for z in members:
            if S.mul(S.mul(S.inv[s], z), s) not in subset:
                return f"conjugation by {s} moves {z} outside"
    return None


def reference_mu_relation(S):
    idems = sorted(S.idempotent_set)
    keys, labels = {}, []
    for s in S.elements():
        k = tuple(S.mul(S.mul(s, e), S.inv[s]) for e in idems)
        labels.append(keys.setdefault(k, len(keys)))
    return Relation(labels)


def reference_relation(keys):
    """The elements grouped by equal key."""
    groups = {}
    return Relation([groups.setdefault(k, len(groups)) for k in keys])


def reference_sigma_relation(S):
    """s ~ t iff se = te for an idempotent e; each element keyed by the least
    element related to it."""
    idems = sorted(S.idempotent_set)
    return reference_relation([next(t for t in S.elements()
                                    if any(S.mul(s, e) == S.mul(t, e) for e in idems))
                               for s in S.elements()])


def reference_refines(R, C):
    return all(len({C.labels[x] for x in block}) == 1 for block in R.blocks)


def reference_kernel_of(S, R):
    idems = S.idempotent_set
    return frozenset(x for block in R.blocks
                     if any(e in idems for e in block) for x in block)


def reference_is_idempotent_separating(S, R):
    idems = S.idempotent_set
    return all(len([x for x in block if x in idems]) <= 1 for block in R.blocks)


def reference_related_products(S, R):
    return frozenset(S.mul(s, S.inv[t]) for block in R.blocks for s in block for t in block)


def reference_is_e_unitary(S, *, skip_zero=False):
    idems = S.idempotent_set
    for e in idems:
        if skip_zero and e == S.zero:
            continue
        for s in S.elements():
            if s not in idems and S.leq[e, s]:
                return False
    return True


def assert_canonical(R):
    """The blocks partition 0..n-1, block i's least element is below block
    i+1's, and the labels and representatives agree with the blocks."""
    heads = [block[0] for block in R.blocks]
    assert all(a < b for a, b in zip(heads, heads[1:]))
    assert R.reps.tolist() == heads
    assert sorted(x for block in R.blocks for x in block) == list(range(R.size))
    assert all(R.labels[x] == i for i, block in enumerate(R.blocks) for x in block)


def reference_congruence_witness(S, R):
    for block in R.blocks:
        a = block[0]
        for b in block[1:]:
            for cblock in R.blocks:
                c = cblock[0]
                for d in cblock[1:]:
                    if not R.related(S.mul(a, c), S.mul(b, d)):
                        return (a, b, c, d)
            for c in S.elements():
                if not R.related(S.mul(c, a), S.mul(c, b)):
                    return (c, c, a, b)
                if not R.related(S.mul(a, c), S.mul(b, c)):
                    return (a, b, c, c)
    return None


def reference_quotient_table(S, R):
    """The quotient's table by the loop, or NotACongruence as the loop raised it."""
    proj, k = R.labels.tolist(), len(R.blocks)
    table = -np.ones((k, k), dtype=np.int64)
    for a in S.elements():
        for b in S.elements():
            target = proj[S.mul(a, b)]
            if table[proj[a], proj[b]] == -1:
                table[proj[a], proj[b]] = target
            elif table[proj[a], proj[b]] != target:
                raise NotACongruence(reference_congruence_witness(S, R))
    return table


def reference_sampler(S, seed, attempts=20):
    """Every attempt saturated in full, then filtered."""
    rng = random.Random(seed)
    found = []
    for _ in range(attempts):
        pairs = [(rng.randrange(S.size), rng.randrange(S.size))
                 for _ in range(rng.randint(1, 2))]
        R = generated_congruence(S, pairs)
        if reference_is_idempotent_separating(S, R):
            found.append(R)
    return found


def reference_split_transversal_loop(S, mu, q):
    """The explicit depth-first loop over every class that split_transversal
    replaced: each step checks every constraint its class completes among
    the classes decided so far."""
    E = S.idempotent_array.tolist()
    forced = dict(zip(mu.labels[E].tolist(), ([e] for e in E)))
    choices = [forced.get(i, list(block)) for i, block in enumerate(mu.blocks)]
    budget = 1
    for c in choices:
        budget *= len(c)
        if budget > congruences.TRANSVERSAL_BUDGET:
            raise SearchBudgetExceeded(
                f"transversal search space exceeds {congruences.TRANSVERSAL_BUDGET}")
    k = len(mu.blocks)
    St, Tt = S.table, q.target.table
    picked = np.full(k, -1, dtype=np.intp)

    def consistent(i):
        c = picked[i]
        done = picked[:i + 1]
        for p, product in ((Tt[i, :i + 1], St[c, done]), (Tt[:i + 1, i], St[done, c])):
            want = picked[p]
            if ((want >= 0) & (product != want)).any():
                return False
        a, b = np.nonzero(Tt[:i + 1, :i + 1] == i)
        return not (St[done[a], done[b]] != c).any()

    tried = [0] * k
    i = 0
    while 0 <= i < k:
        if tried[i] == len(choices[i]):
            picked[i] = -1
            tried[i] = 0
            i -= 1
            continue
        picked[i] = choices[i][tried[i]]
        tried[i] += 1
        if consistent(i):
            i += 1
    return tuple(picked.tolist()) if i == k else None


def transversal_outcome(search, S, mu=None, q=None):
    """A search's transversal, None, or its budget message."""
    if mu is None:
        mu = mu_relation(S)
        q = quotient(S, mu)
    try:
        return search(S, mu, q)
    except SearchBudgetExceeded as exc:
        return f"budget: {exc}"


def split_last_block(C, rng):
    """C with its last block of three or more elements cut in two, or None.
    Its pairs before that block are those of C, so its first witness, if
    any, often comes late."""
    big = [b for b in C.blocks if len(b) > 2]
    if not big:
        return None
    b = big[-1]
    labels = C.labels.copy()
    labels[list(b[rng.randint(1, len(b) - 1):])] = C.count
    return Relation(labels)


def relations(S, seed):
    """The relations the suites use, then seeded random ones: partitions into
    random blocks, the identity with a few pairs merged, a congruence
    generated by a random pair, and congruences with a block split."""
    rng = random.Random(seed)
    n = S.size
    known = [mu_relation(S), sigma_relation(S),
                   generated_congruence(S, [(rng.randrange(n), rng.randrange(n))])]
    out = [Relation(np.arange(n)), Relation(np.zeros(n, dtype=int)), S.h_partition, *known]
    out += [R for R in (split_last_block(C, rng) for C in known) if R is not None]
    for _ in range(6):
        k = rng.randint(1, n)
        out.append(Relation([rng.randrange(k) for _ in range(n)]))
    for merges in (1, 2, 4) if n > 1 else ():
        labels = np.arange(n)
        for _ in range(merges):
            a, b = rng.sample(range(n), 2)
            labels[labels == b] = a
        out.append(Relation(labels))
    return out


def subsets(S, seed):
    """Centralizer-like and random subsets that reach every branch of
    normality_defect: missing idempotents, inverses, products, conjugation."""
    rng = random.Random(seed)
    n, E = S.size, S.idempotent_set
    out = [frozenset(range(n)), frozenset(np.flatnonzero(centralizer(S)).tolist()), E]
    for _ in range(12):
        extra = rng.sample(range(n), rng.randint(0, min(n, 6)))
        picked = E | frozenset(extra)
        if rng.random() < 0.5:
            picked |= frozenset(S.inv[x] for x in extra)
        out.append(picked)
        out.append(frozenset(rng.sample(range(n), rng.randint(1, n))))
    return out


@pytest.mark.parametrize("name", SUBJECTS)
def test_order_h_and_centralizer_equal_the_loops(name):
    S = subject(name)
    assert np.array_equal(S.leq, reference_leq(S))
    assert S.h_partition.blocks == reference_h_partition(S)
    assert np.flatnonzero(centralizer(S)).tolist() == sorted(reference_centralizer(S))
    assert is_clifford(S) == reference_is_clifford(S)
    assert mu_relation(S) == reference_mu_relation(S)


@pytest.mark.parametrize("name", SUBJECTS)
def test_partition_producers_equal_their_references(name):
    """H, mu, sigma, a generated congruence (against the old route from its
    roots; the saturation itself is checked against a union-find in
    ``test_generator_certificates``), the sampler and the grouping of the
    actions' rows behind ``action_kernel``, all canonically numbered."""
    S = subject(name)
    rng = random.Random(name)
    pairs = [(rng.randrange(S.size), rng.randrange(S.size)) for _ in range(2)]
    [root] = congruences._saturate(S, [pairs])
    produced = [S.h_partition, mu_relation(S), sigma_relation(S),
                Relation(root),
                *random_idempotent_separating_congruences(S, seed=len(name))]
    assert produced[0].blocks == reference_h_partition(S)
    assert produced[1:4] == [reference_mu_relation(S), reference_sigma_relation(S),
                             reference_relation(root.tolist())]
    for action in (universal_action(S), tight_action(S)):
        R = Relation(action.maps)
        assert R == reference_relation([tuple(row) for row in action.maps.tolist()])
        assert (np.flatnonzero(action_kernel(action)).tolist()
                == sorted(reference_related_products(S, R)))
        produced.append(R)
    for R in produced:
        assert_canonical(R)


@pytest.mark.parametrize("name", SUBJECTS)
def test_relation_predicates_equal_the_loops(name):
    S = subject(name)
    rels = relations(S, seed=len(name))
    for R in rels:
        assert_canonical(R)
        assert np.flatnonzero(kernel_of(S, R)).tolist() == sorted(reference_kernel_of(S, R))
        assert (np.flatnonzero(related_products(S, R)).tolist()
                == sorted(reference_related_products(S, R)))


@pytest.mark.parametrize("name", SUBJECTS)
def test_unitarity_equals_the_loops(name):
    S = subject(name)
    assert is_e_unitary(S) == reference_is_e_unitary(S)
    if S.zero is None:
        with pytest.raises(ZeroRequired):
            is_zero_e_unitary(S)
    else:
        assert is_zero_e_unitary(S) == reference_is_e_unitary(S, skip_zero=True)


@pytest.mark.parametrize("name", SUBJECTS)
def test_congruence_witness_and_quotient_equal_the_loops(name):
    S = subject(name)
    for R in relations(S, seed=len(name)):
        quad = reference_congruence_witness(S, R)
        assert congruence_witness(S, R) == quad
        if quad is not None:
            with pytest.raises(NotACongruence) as raised:
                quotient(S, R)
            assert raised.value.witness == quad
            assert str(raised.value) == str(NotACongruence(quad))
            continue
        q = quotient(S, R)
        assert q.projection == tuple(R.labels.tolist())
        assert np.array_equal(q.target.table, reference_quotient_table(S, R))


@pytest.mark.parametrize("name", SUBJECTS)
def test_congruence_witness_in_one_row_chunks_equals_the_loop(monkeypatch, name):
    """Every pair (a, b) in a chunk of its own: the first witness may sit in
    any chunk."""
    monkeypatch.setattr(semigroups, "CHUNK_ENTRIES", 1)
    S = subject(name)
    for R in relations(S, seed=len(name)):
        assert congruence_witness(S, R) == reference_congruence_witness(S, R)


@pytest.mark.parametrize("name", SUBJECTS)
def test_normality_defect_equals_the_loops(name):
    S = subject(name)
    for subset in subsets(S, seed=len(name)):
        inside = np.zeros(S.size, dtype=bool)
        inside[list(subset)] = True
        assert normality_defect(S, inside) == reference_normality_defect(S, subset)


@pytest.mark.parametrize("name", SUBJECTS)
def test_sampler_keeps_the_relations_of_full_saturation(name):
    S = subject(name)
    for seed in (0, 1, 0x5EED):
        kept = random_idempotent_separating_congruences(S, seed=seed)
        assert kept == reference_sampler(S, seed)


def test_some_sampled_relations_are_kept_and_some_are_not():
    """The sampler comparison above is not vacuous: on these subjects and
    seeds it keeps some attempts and stops others early."""
    kept = [len(random_idempotent_separating_congruences(subject(name), seed=seed))
            for name in ("b2", "group:z70", "symmetric:3") for seed in (0, 1)]
    assert 0 < sum(kept) < 20 * len(kept)


# ---------------------------------------------------------------------------
# mu is the largest congruence inside H, by partition refinement


def reference_largest_congruence_inside(S, R):
    """(x, y) is related iff (p x q, p y q) is in R for all p, q in S^1:
    the columns of R's labels at p x q over every context (p, q), with n
    standing for the adjoined identity."""
    n = S.size
    T1 = np.empty((n + 1, n + 1), dtype=np.intp)
    T1[:n, :n] = S.table
    T1[n, :] = T1[:, n] = np.arange(n + 1)
    contexts = T1[T1[:, None, :n], np.arange(n + 1)[None, :, None]]    # p x q at [p, q, x]
    return Relation(R.labels[contexts.reshape(-1, n)].T)


@pytest.mark.parametrize("name", [n for n in SUBJECTS if subject(n).size <= 40])
def test_largest_congruence_inside_h_equals_the_context_oracle_and_mu(name):
    S = subject(name)
    top, _ = largest_congruence_inside(S, S.h_partition)
    assert top == reference_largest_congruence_inside(S, S.h_partition) == mu_relation(S)
    assert_canonical(top)


@pytest.mark.parametrize("name", SUBJECTS)
def test_largest_congruence_inside_random_relations_equals_the_oracle(name):
    """Inside any relation, not only H: the result is a congruence refining
    it, and a congruence is returned as it is, after one round."""
    S = subject(name)
    for R in relations(S, seed=len(name)):
        top, rounds = largest_congruence_inside(S, R)
        assert congruence_witness(S, top) is None and reference_refines(top, R)
        if S.size <= 40:
            assert top == reference_largest_congruence_inside(S, R)
        if congruence_witness(S, R) is None:
            assert (top, rounds) == (R, 1)


@pytest.mark.parametrize("name", LADDER + ("symmetric:5",))
def test_largest_congruence_inside_h_is_mu_past_the_corpus(name):
    S = builtin(name) if name == "symmetric:5" else subject(name)     # not kept in the cache
    assert largest_congruence_inside(S, S.h_partition)[0] == mu_relation(S)


def test_largest_congruence_inside_rejects_a_relation_of_another_size():
    with pytest.raises(StructureError):
        largest_congruence_inside(subject("b2"), Relation(np.arange(4)))


@pytest.mark.parametrize("name,patched,witness", [
    ("group:s3", lambda S: Relation(np.arange(S.size)),
     "the largest congruence inside H relates {} and {}, mu does not"),
    ("symmetric:3", lambda S: S.h_partition,
     "mu relates {} and {}, the largest congruence inside H does not"),
])
def test_mu_maximal_fails_with_a_pair_when_mu_is_patched(name, patched, witness):
    """A strictly finer idempotent-separating congruence (the identity on a
    group), which ``congruence.mu_inside_h`` accepts, and H on a subject
    where H is not a congruence.  The witness is the first pair x < y, in
    row-major order, that one relation relates and the other does not."""
    S = subject(name)
    sub = Subject(S)
    sub.mu = patched(S)
    mu = mu_relation(S)
    pair = next((x, y) for x in S.elements() for y in range(x + 1, S.size)
                if sub.mu.related(x, y) != mu.related(x, y))
    [result] = run_checks(sub, "congruence.mu_maximal")
    assert (result.passed, result.witness) == (False, witness.format(*pair))
    [inside] = run_checks(sub, "congruence.mu_inside_h")
    assert inside.passed == (name == "group:s3")


def test_float32_and_int32_order_products_agree():
    """The natural-order certificate's float32 BLAS product counts paths
    exactly: it equals the int32 product on symmetric:4 (209 elements)."""
    L = subject("symmetric:4").leq
    f, i = L.astype(np.float32), L.astype(np.int32)
    assert np.array_equal((f @ f).astype(np.int64), (i @ i).astype(np.int64))


@pytest.mark.parametrize("name", SUBJECTS)
def test_split_transversal_equals_the_loop(name):
    """The same tuple, None or budget message, on the subject and on two
    relabelled copies, whose classes come in another order."""
    S = subject(name)
    for T in (S, _relabelled(S, 1), _relabelled(S, 2)):
        found = transversal_outcome(split_transversal, T)
        assert found == transversal_outcome(reference_split_transversal_loop, T)


def test_split_transversal_equals_the_loop_where_it_backtracks():
    """Labelled shifts, where the search over the free classes backtracks or
    finds no section."""
    outcomes = set()
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for labels in itertools.product(range(m), repeat=2):
            S = _labelled_shift(n, labels + (0,) * (n - 2), m)
            found = transversal_outcome(split_transversal, S)
            assert found == transversal_outcome(reference_split_transversal_loop, S)
            outcomes.add(found is None)
    assert outcomes == {True, False}


def test_split_transversal_fails_on_the_forced_classes_alone():
    """Z2-labelled maps of 3 points generated by 0 -> 1 and 2 -> 2, both
    labelled 1: 6 elements in 5 mu-classes, every class forced, and the
    forced picks are not multiplicative, so the certificate alone finds
    that no section exists."""
    S = _monomial_closure(3, 2, [((1, 1), None, (2, 1))])
    mu = mu_relation(S)
    assert (S.size, mu.count) == (6, 5)
    assert all(len(b) == 1 or any(x in S.idempotent_set for x in b) for b in mu.blocks)
    assert transversal_outcome(split_transversal, S) is None
    assert transversal_outcome(reference_split_transversal_loop, S) is None


@pytest.mark.parametrize("name", ("brandt_z2", "symmetric:3", "group:z70", PRODUCT))
def test_split_transversal_raises_at_the_loops_budget(name, monkeypatch):
    """With P the size of the search space, both complete under budget P and
    both raise under P - 1, before any search step."""
    S = subject(name)
    mu = mu_relation(S)
    E = S.idempotent_set
    space = int(np.prod([1 if any(x in E for x in b) else len(b) for b in mu.blocks]))
    for budget in (space - 1, space):
        monkeypatch.setattr(congruences, "TRANSVERSAL_BUDGET", budget)
        found = transversal_outcome(split_transversal, S)
        assert found == transversal_outcome(reference_split_transversal_loop, S)
        assert isinstance(found, str) == (budget < space)


def test_split_transversal_equals_the_loop_on_a_1001_class_chain():
    n = 1001
    chain = np.minimum.outer(np.arange(n), np.arange(n))
    S = InverseSemigroup(chain, tuple(range(n)), 0, tuple(map(str, range(n))))
    args = (S, Relation(np.arange(n)), congruences.QuotientMap(S, S, tuple(range(n))))
    assert split_transversal(*args) == reference_split_transversal_loop(*args) == tuple(range(n))
