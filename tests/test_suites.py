"""Suite-level behaviour: the golden reports, the table certificates, one
Subject per run, and the theorem checks that moved out of the constructors."""

import dataclasses
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import germlab
from germlab import suites
from germlab.builtins import builtin
from germlab.cli import main
from germlab.congruences import Relation, h_relation
from germlab.extensions import MunnProjection, Subject
from germlab.groupoids import GroupoidHom
from germlab.suites import (
    render_reports,
    run_extension_suite,
    run_suite,
    run_tight_suite,
    run_universal_suite,
)

GOLDEN = Path(__file__).parent / "golden" / "corpus_all.txt"
LADDER_GOLDEN = Path(__file__).parent / "golden" / "structure_ladder.txt"
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
    broken = dataclasses.replace(G, comp={**G.comp, (1, 1): 1})
    sub.beta = dataclasses.replace(sub.beta, groupoid=broken)
    check = next(c for c in run_universal_suite("shadowed", sub)
                 if c.name == "germ.fibers_are_h_classes")
    assert not check.passed
    assert check.witness == "fiber at idempotent 0 is not multiplicative at (1,1)"


def test_z70_universal_suite_passes_without_a_search_cap():
    [report] = run_suite("group:z70", builtin("group:z70"), "universal")
    assert len(report.checks) == 22
    assert report.passed, [c.render() for c in report.checks if not c.passed]


COUNTED = ("universal_action", "spectrum_action", "germ_groupoid", "mu_relation",
           "quotient", "semilattice_of", "all_filters")


def test_one_subject_builds_each_structure_once(monkeypatch):
    """One ``run_suite`` call over all four suites shares one Subject.

    The counts are per distinct structure: germ groupoids and spectrum
    actions of S (universal, tight) and of S/mu on the matched spectrum;
    mu, E and all_filters of S, plus mu and E of S/mu and of the Munn
    semigroup that their own checks build; quotients by mu and sigma.  The
    universal action comes from the Subject, never from universal_action(S);
    all_filters(E) also runs inside ultrafilters and tight_spectrum.
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
    run_suite("symmetric:3", S, "all")
    assert dict(calls) == {"spectrum_action": 2, "germ_groupoid": 3, "mu_relation": 3,
                           "quotient": 2, "semilattice_of": 3, "all_filters": 4}


def _check(suite, S, name, **shadows):
    """One check of a suite run over a Subject whose fields are shadowed."""
    sub = Subject(S)
    for field, value in shadows.items():
        setattr(sub, field, value)     # shadows the cached property on this instance
    return next(c for c in suite("shadowed", sub) if c.name == name)


def _fails(check, witness):
    assert not check.passed
    assert check.witness == witness


@pytest.mark.parametrize("subject,blocks,witness", [
    ("b2", [range(5)], "relates idempotents 0 and 1"),
    ("b2", [(0,), (1,), (2,), (3, 4)], "relates 3 and 4 across H classes"),
])
def test_mu_check_reports_separation_and_h_witnesses(subject, blocks, witness):
    S = builtin(subject)
    mu = Relation.from_blocks(S.size, blocks)
    _fails(_check(run_universal_suite, S, "congruence.mu_inside_h", mu=mu), witness)


def test_mu_check_reports_a_congruence_witness():
    T = builtin("diamond_munn")     # its H relation separates idempotents but is no congruence
    _fails(_check(run_universal_suite, T, "congruence.mu_inside_h", mu=h_relation(T)),
           "not a congruence at (1, 1, 2, 4)")


def test_kernel_check_cross_checks_the_blocks_with_the_pairs():
    S = builtin("group:z3")
    mu = Relation.from_blocks(3, [(0,), (1, 2)])    # r1 r2* = r2 joins the identity's block
    _fails(_check(run_universal_suite, S, "congruence.kernel_mu_is_centralizer", mu=mu),
           "kernel cross-check fails at 1")


@pytest.mark.parametrize("Z,witness", [
    (frozenset({0, 1}), "not closed under inverses at 1"),
    (frozenset({0, 1, 3}), "not closed under products at (1,1)"),
    (frozenset({1, 2, 3}), "idempotent 0 is missing"),
])
def test_centralizer_check_reports_the_closure_witness(Z, witness):
    _fails(_check(run_universal_suite, builtin("group:z4"), "semigroup.centralizer_normal",
                  Z=Z), witness)


@pytest.mark.parametrize("kernel,witness", [
    (frozenset({0, 1}), "universal: kernel is not normal: not closed under inverses at 1"),
    (frozenset({0}), "universal: kernel cross-check fails at 1"),
])
def test_action_kernel_is_checked_by_the_base_dichotomy(kernel, witness):
    _fails(_check(run_tight_suite, builtin("group:z3"), "tight.base_dichotomy_universal",
                  universal_kernel=kernel), witness)


def test_munn_check_reports_a_non_fundamental_semigroup(monkeypatch):
    # z2 has the one-point semilattice of z3 but mu relates its two elements
    monkeypatch.setattr(suites, "munn_semigroup", lambda E: builtin("group:z2"))
    _fails(_check(run_universal_suite, builtin("group:z3"), "spectrum.munn_fundamental"),
           "not fundamental: mu relates 0 and 1")


def test_sigma_check_fails_through_the_quotient_on_a_non_congruence():
    sigma = Relation.from_blocks(3, [(0,), (1, 2)])
    _fails(_check(run_extension_suite, builtin("group:z3"), "extension.sigma_group_image",
                  sigma=sigma),
           "error: relation is not a congruence: (1,1) and (1,2) related but products split")


@pytest.mark.parametrize("r,witness", [
    ((3, 2, 4, 6, 8), "not a section at class 0"),
    ((0, 2, 4, 7, 8), "not multiplicative at (0,3)"),
])
def test_transversal_check_reports_the_defect(r, witness):
    _fails(_check(run_extension_suite, builtin("brandt_z2"), "extension.split_transversal",
                  transversal=r), witness)


def test_projection_check_reports_an_uncovered_fiber():
    S = builtin("group:z2")
    sub = Subject(S)
    G = sub.beta.groupoid
    collapse = GroupoidHom(G, G, tuple(G.units[0] for _ in G.arrows()))
    proj = MunnProjection(sub.mu_quotient, sub.beta, sub.beta, collapse)
    _fails(_check(run_extension_suite, S, "extension.projection_strongly_surjective",
                  projection=proj), "a fiber is not covered")
