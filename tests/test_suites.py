"""Suite-level behaviour: the golden reports, the table certificates, one
Subject per run, and the theorem checks that moved out of the constructors."""

import dataclasses
import importlib
import pkgutil
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import germlab
from germlab import extensions, semilattices, suites
from germlab.algebra import star_representation_defect
from germlab.actions import induced_subgroupoid
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.cli import main
from germlab.congruences import Relation
from germlab.errors import StructureError
from germlab.extensions import MunnProjection, Subject
from germlab.groupoids import FiniteGroupoid, GroupoidHom, validate_groupoid
from germlab.semigroups import InverseSemigroup, validate_inverse_semigroup
from germlab.suites import render_reports, run_checks, run_suite

from test_groupoids import edited_table
from test_order_congruence_tables import PRODUCT, subject

GOLDEN = Path(__file__).parent / "golden" / "corpus_all.txt"
LADDER_GOLDEN = Path(__file__).parent / "golden" / "structure_ladder.txt"
UNIVERSAL_GOLDEN = Path(__file__).parent / "golden" / "universal_ladder.txt"
CONGRUENCE_GOLDEN = Path(__file__).parent / "golden" / "congruence_ladder.txt"
LADDER_RUNS = (("symmetric:4", "tight"), ("symmetric:4", "extension"),
               ("symmetric:4", "algebra"), ("group:z70", "algebra"))


def test_corpus_report_matches_golden(capsys):
    """``tests/golden/corpus_all.txt`` is ``germlab verify corpus --suite all``.

    Any change to a check's verdict, statement or witness text shows up here;
    regenerate the fixture only for an intended report change.
    """
    assert main(["verify", "corpus", "--suite", "all"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


def test_structure_ladder_report_matches_golden():
    """``tests/golden/structure_ladder.txt`` is ``germlab verify builtin:<name>
    --suite <suite>`` for each of LADDER_RUNS, concatenated.

    The larger subjects' float witnesses (``worst deviation``) change with the
    order of any floating-point sum in the algebra layer.
    """
    text = "".join(render_reports(run_suite(name, builtin(name), suite))
                   for name, suite in LADDER_RUNS)
    assert text == LADDER_GOLDEN.read_text(encoding="utf-8")


def test_universal_ladder_report_matches_golden(capsys):
    """``tests/golden/universal_ladder.txt`` is ``germlab verify
    builtin:symmetric:4 --suite universal`` followed by the same for
    ``builtin:group:z70``: the universal suite on groupoids of 208 and 70
    arrows, past the corpus's sizes."""
    text = ""
    for name in ("symmetric:4", "group:z70"):
        assert main(["verify", f"builtin:{name}", "--suite", "universal"]) == 0
        text += capsys.readouterr().out
    assert text == UNIVERSAL_GOLDEN.read_text(encoding="utf-8")


def test_congruence_ladder_report_matches_golden():
    """``tests/golden/congruence_ladder.txt`` is the rendered universal suite
    of ``symmetric:3 x group:z2`` (68 elements, 34 mu-classes) and then of
    ``graph7``, a graph inverse semigroup with 210 elements and 28
    idempotents: the order and congruence checks past the corpus's sizes."""
    text = "".join(render_reports(run_suite(name, subject(name), "universal"))
                   for name in (PRODUCT, "graph7"))
    assert text == CONGRUENCE_GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["b2", "symmetric:4", "group:z70"])
def test_algebra_suite_draws_no_samples(name, monkeypatch):
    """Every algebra check is an index certificate: with the sampler made to
    raise, all six pass, and the star certificate that three of them read
    runs once per subject."""
    def no_samples(rng, count):
        raise AssertionError("the algebra suite drew a sample")
    calls = []

    def counted(G):
        calls.append(G)
        return star_representation_defect(G)
    monkeypatch.setattr(suites.alg.SplitMix64, "words", no_samples)
    monkeypatch.setattr(extensions, "star_representation_defect", counted)
    [report] = run_suite(name, builtin(name), "algebra")
    assert [(c.name, c.passed) for c in report.checks] == [
        (c, True) for c in ("algebra.cstar_identity", "algebra.embedding_isometric",
                            "algebra.conditional_expectation", "algebra.expectation_faithful",
                            "algebra.convolution_associative",
                            "algebra.involution_antimultiplicative")]
    assert len(calls) == 1


def _order_shadow(pairs, unset=()):
    """A 3x3 order matrix: the diagonal, plus pairs, minus unset diagonal entries."""
    m = np.eye(3, dtype=bool)
    for a, b in pairs:
        m[a, b] = True
    for a in unset:
        m[a, a] = False
    return m


@pytest.mark.parametrize("shadow,witness", [
    (_order_shadow([(0, 1), (1, 2)]), "not transitive at (0,1,2)"),
    (_order_shadow([(0, 1), (1, 0)]), "not antisymmetric at (0,1)"),
    (_order_shadow([], unset=[1]), "not reflexive at 1"),
])
def test_natural_order_certificate_reports_a_witness(shadow, witness):
    S = builtin("group:z3")
    S.leq = shadow          # shadows the cached property on this instance only
    [report] = run_suite("shadowed", S, "universal")
    check = next(c for c in report.checks if c.name == "semigroup.natural_order")
    assert not check.passed
    assert check.witness == witness


def test_fiber_certificate_reports_a_non_multiplicative_pair():
    sub = Subject(builtin("group:z3"))
    G = sub.beta.groupoid           # one unit; arrow i is the germ of r_i
    broken = dataclasses.replace(G, table=edited_table(G.table, {(1, 1): 1}))
    sub.beta = dataclasses.replace(sub.beta, groupoid=broken)
    [check] = run_checks(sub, "germ.fibers_are_h_classes")
    assert not check.passed
    assert check.witness == "fiber at idempotent 0 is not multiplicative at (1,1)"


def test_z70_universal_suite_passes_without_a_search_cap():
    [report] = run_suite("group:z70", builtin("group:z70"), "universal")
    assert len(report.checks) == 22
    assert report.passed, [c.render() for c in report.checks if not c.passed]


COUNTED = ("universal_action", "spectrum_action", "germ_groupoid", "mu_relation",
           "quotient", "semilattice_of", "all_filters", "validate_groupoid",
           "certify_germ_groupoid",
           "is_clifford", "is_zero_disjunctive", "is_essentially_principal",
           "extract_subgroupoid", "subgroupoid_properties")


def test_one_subject_builds_each_structure_once(monkeypatch):
    """One ``run_suite`` call over all four suites shares one Subject, and
    the calls after it on the same semigroup, one suite each in another
    order, reuse that Subject: they build no structure again and repeat
    only what the check bodies compute themselves (the three certificates,
    the two principality predicates, and mu of S/mu and of the Munn
    semigroup).

    The counts are per distinct structure: germ groupoids and spectrum
    actions of S (universal, tight: the same gather on the atoms) and of
    S/mu on the matched spectrum;
    mu and E of S, plus mu and E of S/mu and mu of the Munn
    semigroup that their own checks build (the Munn check certifies
    E(T_E) by its identity rows, without building E of T); quotients by
    mu and sigma.  The
    universal action comes from the Subject, never from universal_action(S).
    The spectrum is the Subject's points, with no frozenset filters, and
    all_filters(E) never runs: ultrafilters reads the atoms, and
    tight.ultrafilters_maximal builds its filters from the points.
    certify_germ_groupoid runs in germ.groupoid_axioms, tight.action_valid
    and extension.projection_strongly_surjective, one per germ groupoid, and
    validate_groupoid never runs; no builder re-validates what it builds,
    and the semidirect decomposition
    certifies G(S) by unique factorization without building the product.
    The predicates that several checks read run once per structure:
    is_clifford on S, is_zero_disjunctive on E, is_essentially_principal on
    the universal and on the tight groupoid.
    The isotropy and its interior are computed once per groupoid that a
    check reads them on, the universal and the tight one, however many
    checks call iso_bundle and iso_interior.  Standalone subgroupoid
    copies are extracted only where a check reads more than their arrows:
    the centralizer germs, which the algebra embeds into.  Their subgroupoid
    properties are certified once, for groupoid.centralizer_subgroupoid and
    the algebra's bundle hypotheses alike.
    """
    S = builtin("symmetric:3")
    modules = [importlib.import_module(f"germlab.{m.name}")
               for m in pkgutil.iter_modules(germlab.__path__)]
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in COUNTED:
        real = next((getattr(m, name) for m in modules if hasattr(m, name)), None)
        for module in modules:
            if real is not None and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    computed, groupoids = Counter(), []
    for name in ("isotropy", "isotropy_interior"):
        real = FiniteGroupoid.__dict__[name].func

        def computing(G, name=name, real=real):
            computed[name] += 1
            groupoids.append(G)
            return real(G)

        prop = cached_property(computing)
        prop.__set_name__(FiniteGroupoid, name)
        monkeypatch.setattr(FiniteGroupoid, name, prop)
    run_suite("symmetric:3", S, "all")
    assert dict(calls) == {"spectrum_action": 3, "germ_groupoid": 3, "mu_relation": 3,
                           "quotient": 2, "semilattice_of": 2,
                           "certify_germ_groupoid": 3, "is_clifford": 1, "is_zero_disjunctive": 1,
                           "is_essentially_principal": 2, "extract_subgroupoid": 1,
                           "subgroupoid_properties": 1}
    assert dict(computed) == {"isotropy": 2, "isotropy_interior": 2}
    assert len({id(G) for G in groupoids}) == 2
    first = Counter(calls)
    for suite in ("tight", "extension", "algebra", "universal"):
        run_suite("symmetric:3", S, suite)
    assert calls - first == Counter({"certify_germ_groupoid": 3, "is_essentially_principal": 2,
                                     "mu_relation": 2})
    assert dict(computed) == {"isotropy": 2, "isotropy_interior": 2}


def test_derived_structures_are_validated_once(monkeypatch):
    """One ``run_suite`` over all four suites on brandt_z2, which has no
    zero, so the cocycle runs, and whose mu (5 blocks) and sigma (2 blocks)
    are not the identity.  S/mu and S/sigma are certified by the congruence
    check alone and the cocycle's group by ``group_quotient``, so
    ``validate_groupoid`` never runs, and Light's test and the inverse
    search run once each, on the Munn semigroup that
    ``spectrum.munn_fundamental`` builds from scratch."""
    from germlab import groupoids, semigroups
    from germlab.congruences import mu_relation, sigma_relation

    S = builtin("brandt_z2")
    assert S.zero is None
    assert (mu_relation(S).count, sigma_relation(S).count) == (5, 2)
    munn = semilattices.munn_semigroup(semilattices.semilattice_of(S))
    calls = {}

    def count(module, name, size):
        real, calls[name] = getattr(module, name), []
        monkeypatch.setattr(module, name, lambda x: calls[name].append(size(x)) or real(x))

    count(semigroups, "check_associativity", len)
    count(semigroups, "_inverses", len)
    count(groupoids, "validate_groupoid", lambda G: G.n_arrows)
    reports = run_suite("brandt_z2", S, "all")
    assert all(report.passed for report in reports)
    assert calls == {"check_associativity": [munn.size], "_inverses": [munn.size],
                     "validate_groupoid": []}


def test_centralizer_germs_of_a_group_are_the_whole_groupoid():
    """On a group the centralizer is everything, so its germs are every
    arrow, and the embedding's groupoid is the universal groupoid itself,
    not a second copy with its own cached plans."""
    sub = Subject(builtin("group:z70"))
    assert sub.z_in_beta.arrows.all()
    assert sub.z_in_beta.groupoid is sub.beta.groupoid
    assert sub.z_in_beta.to_parent.tolist() == list(range(70))


def _check(S, name, **shadows):
    """One registered check, run alone over a Subject whose fields are shadowed."""
    sub = Subject(S)
    for field, value in shadows.items():
        setattr(sub, field, value)     # shadows the cached property on this instance
    [check] = run_checks(sub, name)
    return check


def _fails(check, witness):
    assert not check.passed
    assert check.witness == witness


@pytest.mark.parametrize("subject,labels,witness", [
    ("b2", [0, 0, 0, 0, 0], "relates idempotents 0 and 1"),
    ("b2", [0, 1, 2, 3, 3], "relates 3 and 4 across H classes"),
])
def test_mu_check_reports_separation_and_h_witnesses(subject, labels, witness):
    _fails(_check(builtin(subject), "congruence.mu_inside_h", mu=Relation(labels)), witness)


def test_mu_check_reports_a_congruence_witness():
    T = builtin("diamond_munn")     # its H relation separates idempotents but is no congruence
    _fails(_check(T, "congruence.mu_inside_h", mu=T.h_partition),
           "not a congruence at (1, 1, 2, 4)")


def _shadowed(name, **fields):
    """A builtin semigroup with cached properties shadowed on this instance."""
    S = builtin(name)
    for field, value in fields.items():
        setattr(S, field, value)
    return S


@pytest.mark.parametrize("S,witness", [
    # z3 with {0, 1} declared idempotent: r1 r1 = r2 is not
    (_shadowed("group:z3", idempotent_array=np.array([0, 1]),
               idempotent_mask=np.array([True, True, False])),
     "product 1,1 leaves the idempotents"),
    # the left-zero band on two elements, unvalidated: 0.1 = 0 but 1.0 = 1
    (InverseSemigroup(np.array([[0, 0], [1, 1]]), np.array([0, 1]), None, ("x", "y")),
     "idempotents 0,1 do not commute"),
])
def test_idempotent_check_reports_the_first_pair(S, witness):
    # the shadowed idempotents form no semilattice, so the other checks get
    # the one-point semilattice of z3 itself
    E = Subject(builtin("group:z3")).E
    _fails(_check(S, "semigroup.idempotents_closed", E=E), witness)


@pytest.mark.parametrize("S,witness", [
    # z4 split into {0, 1} and {2, 3}: r1 r1 = r2 leaves the class of 0
    (_shadowed("group:z4", h_partition=Relation([0, 0, 1, 1])),
     "class of 0 is not a group (witness 1)"),
    # b2 with a*a and a* in one class: a* times a*a is 0, not a*
    (_shadowed("b2", h_partition=Relation([0, 1, 2, 3, 1])),
     "1 is not an identity on its class"),
])
def test_h_class_check_reports_the_first_element(S, witness):
    _fails(_check(S, "semigroup.h_class_groups"), witness)


def test_kernel_check_compares_the_kernel_with_the_centralizer():
    # mu of z3 is universal, so its kernel is all of z3, not the shadowed {0}
    _fails(_check(builtin("group:z3"), "congruence.kernel_mu_is_centralizer",
                  Z=np.array([True, False, False])), "1 elements")


def test_kernel_check_cross_checks_the_blocks_with_the_pairs():
    S = builtin("group:z3")
    mu = Relation([0, 1, 1])    # r1 r2* = r2 joins the identity's block
    _fails(_check(S, "congruence.kernel_mu_is_centralizer", mu=mu),
           "kernel cross-check fails at 1")


@pytest.mark.parametrize("Z,witness", [
    ([True, True, False, False], "not closed under inverses at 1"),
    ([True, True, False, True], "not closed under products at (1,1)"),
    ([False, True, True, True], "idempotent 0 is missing"),
])
def test_centralizer_check_reports_the_closure_witness(Z, witness):
    _fails(_check(builtin("group:z4"), "semigroup.centralizer_normal",
                  Z=np.array(Z)), witness)


@pytest.mark.parametrize("kernel,witness", [
    ([True, True, False], "universal: kernel is not normal: not closed under inverses at 1"),
    ([True, False, False], "universal: kernel cross-check fails at 1"),
])
def test_action_kernel_is_checked_by_the_base_dichotomy(kernel, witness):
    _fails(_check(builtin("group:z3"), "tight.base_dichotomy_universal",
                  universal_kernel=np.array(kernel)), witness)


def test_ultrafilter_check_compares_the_tight_spectrum_with_the_atoms(monkeypatch):
    """One atom's filter dropped from ``ultrafilters`` everywhere, the tight
    spectrum too: the rest are still maximal, so only the maximal filters
    found by pairwise inclusion catch it."""
    real = semilattices.ultrafilters
    monkeypatch.setattr(semilattices, "ultrafilters", lambda E: real(E)[1:])
    monkeypatch.setattr(suites, "ultrafilters", semilattices.ultrafilters)
    _fails(_check(builtin("diamond_munn"), "tight.ultrafilters_maximal"),
           "a maximal filter is not an ultrafilter")


def test_munn_check_reports_a_non_fundamental_semigroup(monkeypatch):
    # z2 as the permutations of 2 points has one idempotent, as z3 has, but
    # mu relates its two elements
    monkeypatch.setattr(suites, "munn_rows", lambda E: (np.array([[0, 1], [1, 0]]), ("1", "s")))
    _fails(_check(builtin("group:z3"), "spectrum.munn_fundamental"),
           "not fundamental: mu relates 0 and 1")


def test_munn_check_reports_a_missing_identity_row(monkeypatch):
    """The empty map alone is fundamental, but the identity of E's one
    point is none of its rows."""
    monkeypatch.setattr(suites, "munn_rows", lambda E: (np.array([[-1]]), ("[]",)))
    _fails(_check(builtin("group:z3"), "spectrum.munn_fundamental"),
           "idempotent semilattice changed")


def test_munn_check_reports_a_table_that_breaks_a_meet(monkeypatch):
    """E is the chain 0 < 1, whose Munn semigroup is the chain itself, with
    the identity rows in the order of E; the same chain reversed is
    fundamental and has the same idempotents, but carries 0.1 = 0 to 1."""
    chain = validate_inverse_semigroup([[0, 0], [0, 1]])
    reversed_chain = validate_inverse_semigroup([[0, 1], [1, 1]])
    monkeypatch.setattr(suites, "partial_bijection_semigroup", lambda rows, labels: reversed_chain)
    _fails(_check(chain, "spectrum.munn_fundamental"), "idempotent semilattice changed")


def test_sigma_check_fails_through_the_quotient_on_a_non_congruence():
    sigma = Relation([0, 1, 1])
    _fails(_check(builtin("group:z3"), "extension.sigma_group_image",
                  sigma=sigma),
           "error: relation is not a congruence: (1,1) and (1,2) related but products split")


@pytest.mark.parametrize("r,witness", [
    ((3, 2, 4, 6, 8), "not a section at class 0"),
    ((0, 2, 4, 7, 8), "not multiplicative at (0,3)"),
])
def test_transversal_check_reports_the_defect(r, witness):
    _fails(_check(builtin("brandt_z2"), "extension.split_transversal",
                  transversal=r), witness)


def test_projection_check_reports_an_uncovered_fiber():
    S = builtin("group:z2")
    sub = Subject(S)
    G = sub.beta.groupoid
    collapse = GroupoidHom(G, G, np.full(G.n_arrows, G.units[0]))
    proj = MunnProjection(sub.mu_quotient, sub.beta, sub.beta, collapse)
    _fails(_check(S, "extension.projection_strongly_surjective",
                  projection=proj), "a fiber is not covered")


def _broken(germs, **fields):
    """A copy of a germ groupoid with fields of its FiniteGroupoid replaced."""
    return dataclasses.replace(germs, groupoid=dataclasses.replace(germs.groupoid, **fields))


# group:z3 has one unit; arrow i is the germ of r_i, and r_1 r_1 = r_2
Z3_BAD_SQUARE = {(1, 1): 1}


def test_universal_germs_are_validated_by_the_axioms_check():
    S = builtin("group:z3")
    beta = Subject(S).beta
    beta = _broken(beta, table=edited_table(beta.groupoid.table, Z3_BAD_SQUARE))
    _fails(_check(S, "germ.groupoid_axioms", beta=beta),
           "error: element map is not multiplicative at (1,1)")


def test_tight_germs_are_validated_by_the_action_check():
    S = builtin("group:z3")
    theta = Subject(S).theta
    theta = _broken(theta, table=edited_table(theta.groupoid.table, Z3_BAD_SQUARE))
    _fails(_check(S, "tight.action_valid", theta=theta),
           "error: element map is not multiplicative at (1,1)")


def test_projection_check_validates_the_target_before_the_map():
    S = builtin("group:z2")
    proj = Subject(S).projection
    target = _broken(proj.target, table=np.full((1, 1), -1))  # S/mu is trivial: one unit, no products
    hom = dataclasses.replace(proj.hom, target=target.groupoid)
    proj = dataclasses.replace(proj, target=target, hom=hom)
    _fails(_check(S, "extension.projection_strongly_surjective",
                  projection=proj), "error: composability mismatch at (0,0)")


def _squaring_hom(sub):
    """r_0, r_1, r_2 -> r_0, r_2, r_2 on the germs of group:z3: it keeps the
    unit, but sends r_1 r_1 = r_2 to r_2, not to r_2 r_2 = r_1."""
    G = sub.beta.groupoid
    return GroupoidHom(G, G, np.array([0, 2, 2]))


def test_projection_check_reports_a_non_multiplicative_map():
    S = builtin("group:z3")
    sub = Subject(S)
    proj = MunnProjection(sub.mu_quotient, sub.beta, sub.beta, _squaring_hom(sub))
    _fails(_check(S, "extension.projection_strongly_surjective",
                  projection=proj), "error: hom is not multiplicative at (1,1)")


def test_cocycle_check_reports_a_non_multiplicative_map():
    S = builtin("group:z3")
    sub = Subject(S)
    _fails(_check(S, "extension.sigma_cocycle",
                  cocycle=(_squaring_hom(sub), sub.beta)),
           "error: hom is not multiplicative at (1,1)")


def test_decomposition_check_reports_an_arrow_without_factorization():
    """With the units for the centralizer germs, the non-unit arrows of
    G(Z3) have no factorization over the transversal's germs."""
    S = builtin("group:z3")
    sub = Subject(S)
    units = dataclasses.replace(sub.z_in_beta, arrows=sub.beta.groupoid.unit_mask)
    _fails(_check(S, "extension.semidirect_decomposition", z_in_beta=units),
           "error: arrow 1 has no factorization eta gamma")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_extracted_subgroupoids_are_groupoids(name):
    """extract_subgroupoid does not validate its copies: an arrow set closed
    under inverses and composition is a groupoid.  This is the reference:
    every copy the suites extract passes validate_groupoid."""
    sub = Subject(builtin(name))
    copies = [sub.z_in_beta.groupoid, induced_subgroupoid(sub.theta, sub.Z).groupoid,
              induced_subgroupoid(sub.beta, sub.universal_kernel).groupoid,
              induced_subgroupoid(sub.theta, sub.tight_kernel).groupoid]
    for copy in copies:
        validate_groupoid(copy)


def test_each_check_is_declared_once_in_its_suite():
    names = [c.name for c in suites.CHECKS]
    assert len(names) == len(set(names)) == 44
    per_suite = Counter((c.suite, c.corpus_wide) for c in suites.CHECKS)
    assert per_suite == {("universal", False): 22, ("tight", False): 8,
                         ("extension", False): 6, ("algebra", False): 6,
                         ("universal", True): 1, ("algebra", True): 1}


def test_declaration_order_is_the_report_order():
    """Every report in the golden corpus report lists its suite's checks in
    declaration order: the subjects' reports the per-subject checks, the
    corpus-wide reports the corpus-wide ones."""
    reports = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("== verify "):
            names = reports.setdefault(line, [])
        elif line.startswith("[PASS] "):
            names.append(line.removeprefix("[PASS] ").split(" :: ")[0])
    assert len(reports) == 4 * len(CORPUS_NAMES) + 2
    for header, names in reports.items():
        subject, _, suite = header.removeprefix("== verify ").removesuffix(") ==").partition(
            " (suite=")
        corpus_wide = subject == "(corpus-wide)"
        assert names == [c.name for c in suites.CHECKS
                         if c.suite == suite and c.corpus_wide == corpus_wide], header


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_each_check_alone_matches_the_full_run(name):
    """A check run alone over a fresh Subject gives the verdict and witness it
    gives in the full run: no body depends on what an earlier check built."""
    S = builtin(name)
    full = {c.name: (c.passed, c.witness)
            for report in run_suite(name, S, "all") for c in report.checks}
    alone = {}
    for check_name in full:
        [c] = run_checks(Subject(S), check_name)
        alone[c.name] = (c.passed, c.witness)
    assert alone == full


def test_a_construction_error_in_an_algebra_check_is_its_failure_witness(monkeypatch):
    """The algebra checks build the centralizer bundle inside their bodies, so
    an error there fails those checks instead of escaping ``run_suite``."""
    def broken(sub):
        raise StructureError("no bundle")
    monkeypatch.setattr(Subject, "z_in_beta", property(broken))
    [report] = run_suite("b2", builtin("b2"), "algebra")
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed == dict.fromkeys(("algebra.embedding_isometric",
                                    "algebra.conditional_expectation",
                                    "algebra.expectation_faithful"), "error: no bundle")
