"""Acceptance criteria, one test per criterion, each printing a PASS line.

The corpus (25 semigroups) is shared across criteria through session-scoped
fixtures so the stated time budgets are honest: each criterion re-derives
what it asserts, but germ groupoids are built once per subject.
"""

import time

import numpy as np
import pytest

from germlab.actions import (
    DirectedGraph,
    action_kernel,
    centralizer_germs,
    domains_form_base,
    germ_groupoid,
    graph_inverse_semigroup,
    induced_subgroupoid,
    tight_action,
    universal_action,
)
from germlab import algebra as alg
from germlab.builtins import NAMED_GRAPHS, builtin, corpus, diamond_semilattice
from germlab.congruences import find_split_transversal, mu_relation
from germlab.errors import SearchBudgetExceeded
from germlab.extensions import (
    mu_projection_hom,
    semidirect_from_split,
    sigma_cocycle,
)
from germlab.groupoids import (
    fiber_group,
    group_as_groupoid,
    groupoid_isomorphic,
    hom_kernel,
    is_effective,
    is_essentially_principal,
    is_open,
    is_strongly_surjective,
    iso_bundle,
    iso_interior,
)
from germlab.semigroups import (
    centralizer,
    h_class_of,
    is_e_unitary,
    is_zero_e_unitary,
)
from germlab.semilattices import (
    is_zero_disjunctive,
    munn_rows,
    row_finder,
    semilattice_of,
)
from germlab.suites import global_reports, render_reports, run_suite

from test_algebra import norm_rtol


@pytest.fixture(scope="session")
def subjects():
    return corpus()


@pytest.fixture(scope="session")
def beta_germs(subjects):
    return {name: germ_groupoid(universal_action(S)) for name, S in subjects}


@pytest.fixture(scope="session")
def theta_germs(subjects):
    return {name: germ_groupoid(tight_action(S)) for name, S in subjects}


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label} took {elapsed:.2f}s >= {self.limit}s"
        print(f"[{label}] PASS ({elapsed:.2f}s)")


def test_criterion_1_diamond_example():
    budget = Budget(1.0)
    S = builtin("diamond_munn")
    assert S.size == 7
    # e -> the identity row of the ideal below e is an isomorphism onto E(S)
    D = diamond_semilattice()
    rows, _ = munn_rows(D)
    phi = row_finder(rows)(np.where(D.order.T, np.arange(D.size), -1))
    assert sorted(phi.tolist()) == S.idempotent_array.tolist()
    assert (S.table[np.ix_(phi, phi)] == phi[D.meet]).all()
    # the maximum idempotent carries an order-2 class group
    E = S.idempotent_array.tolist()
    top = max(E, key=lambda e: sum(S.leq[f, e] for f in E))
    assert len(h_class_of(S, top)) == 2
    assert np.array_equal(centralizer(S), S.idempotent_mask)
    germs = germ_groupoid(universal_action(S))
    z_arrows = centralizer_germs(germs).arrows
    assert np.array_equal(z_arrows, germs.groupoid.unit_mask)
    assert np.count_nonzero(z_arrows) == 3
    swap = next(s for s in h_class_of(S, top) if s != top)
    swap_germ = germs.germ_at[swap, germs.principal_point(top)]
    inner = iso_interior(germs.groupoid)
    assert swap_germ >= 0 and inner[swap_germ] and not z_arrows[swap_germ]
    budget.done("criterion-1 diamond example")


def test_criterion_2_cryptic_equality(subjects, beta_germs):
    budget = Budget(10.0)
    assert len(subjects) >= 20
    non_cryptic_seen = 0
    for name, S in subjects:
        germs = beta_germs[name]
        z_arrows = centralizer_germs(germs).arrows
        inner = iso_interior(germs.groupoid)
        if mu_relation(S) == S.h_partition:
            assert np.array_equal(z_arrows, inner), f"{name}: cryptic but sets differ"
        else:
            non_cryptic_seen += 1
            witnesses = inner & ~z_arrows
            assert witnesses.any(), f"{name}: not cryptic but no witness arrow"
    assert non_cryptic_seen >= 3
    budget.done("criterion-2 cryptic equality suite")


def test_criterion_3_isotropy_fibers(subjects, beta_germs):
    budget = Budget(10.0)
    for name, S in subjects:
        germs = beta_germs[name]
        for e in S.idempotent_array.tolist():
            if e == S.zero:
                continue  # no filter contains the zero
            u = germs.unit_at_point[germs.principal_point(e)]
            fiber = fiber_group(germs.groupoid, u)
            block = h_class_of(S, e)
            back = {s: i for i, s in enumerate(block)}
            he = group_as_groupoid([[back[S.mul(a, b)] for b in block] for a in block])
            cert = groupoid_isomorphic(fiber.groupoid, he)
            assert cert is not None, f"{name}: fiber at {e} differs from its class"
    budget.done("criterion-3 isotropy fiber suite")


def test_criterion_4_kernels(subjects, beta_germs, theta_germs):
    budget = Budget(10.0)
    zero_disjunctive_seen = 0
    for name, S in subjects:
        assert np.array_equal(action_kernel(beta_germs[name].action), centralizer(S)), name
        E = semilattice_of(S)
        if E.zero is not None and is_zero_disjunctive(E):
            zero_disjunctive_seen += 1
            theta = theta_germs[name]
            domains = theta.action.maps[S.idempotent_array] >= 0
            assert len(np.unique(domains, axis=0)) == len(domains), f"{name}: domains collide"
            assert np.array_equal(centralizer_germs(theta).arrows,
                                  iso_interior(theta.groupoid)), name
    assert zero_disjunctive_seen >= 5
    # in-degree-1 graphs are never 0-disjunctive
    for gname, graph in NAMED_GRAPHS.items():
        if any(graph.in_degree(v) == 1 for v in range(graph.n_vertices)):
            S = builtin(f"graph:{gname}")
            assert not is_zero_disjunctive(semilattice_of(S)), gname
    budget.done("criterion-4 kernel suites")


def test_criterion_5_base_hypothesis_dichotomy(subjects, beta_germs, theta_germs):
    budget = Budget(10.0)
    for name, S in subjects:
        for germs in (beta_germs[name], theta_germs[name]):
            J = action_kernel(germs.action)
            arrows = induced_subgroupoid(germs, J).arrows
            G = germs.groupoid
            assert not (arrows & ~iso_bundle(G)).any(), f"{name}: kernel germs not isotropy"
            assert is_open(G, arrows), f"{name}: kernel germs not open"
            if domains_form_base(germs.action):
                assert np.array_equal(arrows, iso_interior(G)), \
                    f"{name}: base holds, equality fails"
    budget.done("criterion-5 base-hypothesis dichotomy")


def test_criterion_6_extension_suite(subjects):
    budget = Budget(30.0)
    splits_certified = 0
    for name, S in subjects:
        proj = mu_projection_hom(S)
        assert is_strongly_surjective(proj.hom), name
        kernel = hom_kernel(proj.hom)
        z_arrows = centralizer_germs(proj.source).arrows
        assert not (z_arrows & ~kernel).any(), name
        T = proj.quotient.target
        unitary = is_zero_e_unitary(T) if T.zero is not None else is_e_unitary(T)
        if unitary:
            assert np.array_equal(kernel, z_arrows), f"{name}: kernel exceeds centralizer germs"
        try:
            r = find_split_transversal(S)
        except SearchBudgetExceeded:
            r = None
        if r is not None:
            dec = semidirect_from_split(S, r)
            G = proj.source.groupoid
            assert (G.table[dec.factors[:, 0], dec.factors[:, 1]]
                    == np.arange(G.n_arrows)).all(), name
            splits_certified += 1
    assert splits_certified >= 10
    budget.done("criterion-6 extension suite")


def test_criterion_7_cocycle_suite(subjects):
    budget = Budget(5.0)
    checked = 0
    for name, S in subjects:
        if S.zero is not None or not is_e_unitary(S):
            continue
        hom, germs = sigma_cocycle(S)
        assert np.array_equal(hom_kernel(hom), germs.groupoid.unit_mask), name
        checked += 1
    assert checked >= 5
    budget.done("criterion-7 cocycle suite")


def test_criterion_8_algebra_suite(subjects, beta_germs):
    budget = Budget(60.0)
    for name, S in subjects:
        germs = beta_germs[name]
        G = germs.groupoid
        emb = centralizer_germs(germs)
        H = emb.groupoid
        rng = np.random.default_rng(0xA15EB + G.n_arrows)
        for _ in range(100):
            f = alg.random_function(H, rng)
            g = alg.random_function(H, rng)
            assert np.array_equal(alg.embed(emb, alg.convolve(f, g)).values,
                                  alg.convolve(alg.embed(emb, f), alg.embed(emb, g)).values), name
            nf = alg.reduced_norm(H, f)
            assert abs(alg.reduced_norm(G, alg.embed(emb, f)) - nf) <= norm_rtol(G) * nf, name
            p = alg.random_function(G, rng)
            n1 = alg.reduced_norm(G, alg.convolve(alg.involution(p), p))
            n2 = alg.reduced_norm(G, p) ** 2
            assert abs(n1 - n2) <= norm_rtol(G) * n2, name
            phi = alg.conditional_expectation(
                emb, alg.convolve(alg.involution(p), p))
            if np.max(np.abs(p.values)) >= 1e-12:
                assert np.max(np.abs(phi.values)) > 1e-12, name
        # idempotence and the bimodule identity on a smaller sample
        for _ in range(20):
            f = alg.random_function(G, rng)
            once = alg.conditional_expectation(emb, f)
            again = alg.conditional_expectation(emb, alg.embed(emb, once))
            assert np.array_equal(once.values, again.values), name
            a, b = alg.random_function(H, rng), alg.random_function(H, rng)
            lhs = alg.conditional_expectation(
                emb, alg.convolve(alg.convolve(alg.embed(emb, a), f),
                                  alg.embed(emb, b)))
            rhs = alg.convolve(alg.convolve(a, once), b)
            assert np.array_equal(lhs.values, rhs.values), name
    budget.done("criterion-8 algebra suite")


def test_criterion_9_predicate_equivalence(subjects, beta_germs, theta_germs):
    budget = Budget(5.0)
    for name, S in subjects:
        for germs in (beta_germs[name], theta_germs[name]):
            assert (is_essentially_principal(germs.groupoid)
                    == is_effective(germs.groupoid)), name
    budget.done("criterion-9 predicate equivalence")


def test_criterion_10_determinism(subjects):
    budget = Budget(60.0)

    def full_run():
        reports = global_reports("all")
        for name, S in subjects:
            reports += run_suite(name, S, "all")
        return render_reports(reports)

    first = full_run()
    second = full_run()
    assert first == second
    assert "FAIL" not in first
    budget.done("criterion-10 determinism")


def test_symmetric4_universal_suite_budget():
    # 209 elements: a cubic check or an isomorphism search in the universal
    # suite would take minutes here.
    budget = Budget(30.0)
    [report] = run_suite("symmetric:4", builtin("symmetric:4"), "universal")
    assert len(report.checks) == 22
    assert report.passed, [c.render() for c in report.checks if not c.passed]
    budget.done("symmetric:4 universal suite")


def test_symmetric5_universal_suite_budget():
    # 1546 elements, 32 idempotents, 1545 universal arrows: the next rung of
    # the scale ladder, from building the table to the last check.
    budget = Budget(30.0)
    S = builtin("symmetric:5")
    assert S.size == 1546
    [report] = run_suite("symmetric:5", S, "universal")
    assert len(report.checks) == 22
    assert report.passed, [c.render() for c in report.checks if not c.passed]
    budget.done("symmetric:5 universal suite")


def test_symmetric5_all_suites_budget():
    # every suite on symmetric:5, from building the table to the last check;
    # the extension and algebra suites' split transversal and norms are the
    # costs this bounds: one certificate comparison instead of a search, and
    # one Gram eigenvalue problem per split block of an orbit's
    # representative (5 blocks instead of 31 per function)
    budget = Budget(14.0)
    S = builtin("symmetric:5")
    reports = run_suite("symmetric:5", S, "all")
    assert [len(r.checks) for r in reports] == [22, 8, 6, 6]
    assert all(r.passed for r in reports), [c.render() for r in reports
                                            for c in r.checks if not c.passed]
    budget.done("symmetric:5 all suites")


def test_chain512_universal_suite_budget():
    # 512 elements, all idempotents, 511 points: a germ.equivalence check that
    # keyed the triples of a point, an element and an idempotent acting there
    # (4.5e7 of them) took most of 14 s and 3 GB, from building the table to
    # the last check.
    budget = Budget(10.0)
    S = builtin("semilattice:chain512")
    assert S.size == 512
    [report] = run_suite("semilattice:chain512", S, "universal")
    assert len(report.checks) == 22
    assert report.passed, [c.render() for c in report.checks if not c.passed]
    budget.done("semilattice:chain512 universal suite")


def test_layered_graph_build_budget():
    # 4 layers of 3 vertices, each vertex joined to all 3 of the next layer:
    # 5359 elements, from the path counts through the gathers of the two
    # path tables to Light's test and the inverse search
    budget = Budget(10.0)
    edges = tuple((3 * i + a, 3 * i + 3 + b) for i in range(3) for a in range(3) for b in range(3))
    S = graph_inverse_semigroup(DirectedGraph(12, edges))
    assert (S.size, S.idempotent_array.size, S.zero) == (5359, 175, 0)
    budget.done("layered 4x3 graph build")
