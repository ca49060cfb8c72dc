"""``run_suite`` reuses the Subject of the previous call on the same
semigroup object: the reports stay those of a fresh Subject, another
object gets its own Subject, and only the last one is held."""

import weakref

import pytest

from germlab import suites
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.extensions import Subject
from germlab.semigroups import validate_inverse_semigroup
from germlab.suites import SUITE_NAMES, VerificationReport, render_reports, run_checks, run_suite

ORDERS = (SUITE_NAMES, SUITE_NAMES[::-1])


def _fresh(name, S, suite):
    return render_reports([VerificationReport(name, suite, run_checks(Subject(S), suite))])


@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4",))
def test_consecutive_suites_render_as_over_a_fresh_subject(name):
    """Each suite's report, run one suite a call in either order on one
    semigroup object, is byte-identical to the suite over a fresh Subject."""
    fresh = {suite: _fresh(name, builtin(name), suite) for suite in SUITE_NAMES}
    for order in ORDERS:
        S = builtin(name)
        for suite in order:
            assert render_reports(run_suite(name, S, suite)) == fresh[suite], (order, suite)


def test_equal_tables_with_other_labels_get_their_own_subject():
    """Two semigroup objects with one table but different labels are two
    subjects: the second run prints its own labels, not the first's."""
    S1 = builtin("diamond_munn")
    S2 = validate_inverse_semigroup(S1.table, [f"x{i}" for i in range(S1.size)])
    first = render_reports(run_suite("diamond_munn", S1, "universal"))
    second = render_reports(run_suite("relabeled", S2, "universal"))
    assert second == _fresh("relabeled", S2, "universal")
    assert first == _fresh("diamond_munn", S1, "universal")
    assert "witness [x" in second and "witness [x" not in first


def test_run_suite_holds_only_the_last_subject():
    """After a run on another semigroup, the first one's Subject is freed."""
    S1, S2 = builtin("group:z3"), builtin("b2")
    run_suite("group:z3", S1, "universal")
    held = weakref.ref(suites._subject(S1))       # the Subject that run used
    assert held().S is S1 and held().beta is not None
    run_suite("b2", S2, "universal")
    assert held() is None
