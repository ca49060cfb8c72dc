"""Suite-level behaviour: the golden corpus report and the table certificates."""

from pathlib import Path

import numpy as np
import pytest

from germlab.builtins import builtin, corpus
from germlab.suites import global_reports, render_reports, run_suite

GOLDEN = Path(__file__).parent / "golden" / "corpus_all.txt"
LADDER_GOLDEN = Path(__file__).parent / "golden" / "structure_ladder.txt"
LADDER_RUNS = (("symmetric:4", "tight"), ("symmetric:4", "extension"),
               ("symmetric:4", "algebra"), ("group:z70", "algebra"))


def test_corpus_report_matches_golden():
    """``tests/golden/corpus_all.txt`` is ``germlab verify corpus --suite all``.

    Any change to a check's verdict, statement or witness text shows up here;
    regenerate the fixture only for an intended report change.
    """
    reports = global_reports("all")
    for name, S in corpus():
        reports += run_suite(name, S, "all")
    assert render_reports(reports) == GOLDEN.read_text(encoding="utf-8")


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


def test_z70_universal_suite_passes_without_a_search_cap():
    [report] = run_suite("group:z70", builtin("group:z70"), "universal")
    assert len(report.checks) == 22
    assert report.passed, [c.render() for c in report.checks if not c.passed]
