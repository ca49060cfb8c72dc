"""The bundle map's certificate under a corrupted centralizer embedding.

``algebra.embedding_isometric``, ``algebra.conditional_expectation`` and
``algebra.expectation_faithful`` all read ``Subject.bundle_defect``, the
certificate ``algebra.embedding_defect`` of ``Subject.z_in_beta``.  The
sweep corrupts that embedding after the Subject built it and before any
check reads it, on the corpus subjects and ``symmetric:4``: each
corruption must fail all three checks with the certificate's witness, run
alone and inside ``run_suite``, and no check may raise anything but a
``StructureError``."""

import dataclasses

import numpy as np
import pytest

from germlab import suites
from germlab.algebra import embedding_defect
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.extensions import Subject
from germlab.suites import SUITE_NAMES, run_checks, run_suite

SUBJECTS = CORPUS_NAMES + ("symmetric:4",)
BUNDLE_CHECKS = ("algebra.embedding_isometric", "algebra.conditional_expectation",
                 "algebra.expectation_faithful")
KINDS = ("swap", "off_mask", "drop_unit", "add_unit")


def _corrupt(emb, kind):
    """A copy of the embedding with one corruption of the kind, or None
    where the kind does not apply:
    swap       the images of H's first unit and first non-unit exchanged;
               with no non-unit, of its first two units
    off_mask   the image of H's last arrow moved to G's first arrow off the
               subgroupoid
    drop_unit  H's last unit dropped from its unit list
    add_unit   H's first non-unit added to its unit list"""
    H, t = emb.groupoid, emb.to_parent
    non_units = np.flatnonzero(~H.unit_mask)
    if kind == "swap":
        pair = [H.units[0], non_units[0]] if non_units.size else H.units[:2]
        if len(pair) < 2:
            return None
        t = t.copy()
        t[pair] = t[pair[::-1]]
        return dataclasses.replace(emb, to_parent=t)
    if kind == "off_mask":
        off = np.flatnonzero(~emb.arrows)
        if not off.size:
            return None
        t = t.copy()
        t[-1] = off[0]
        return dataclasses.replace(emb, to_parent=t)
    if kind == "drop_unit":
        units = H.units[:-1]
    else:
        if not non_units.size:
            return None
        units = np.sort(np.append(H.units, non_units[0]))
    return dataclasses.replace(emb, groupoid=dataclasses.replace(H, units=units))


def _harmless(emb, kind) -> bool:
    """A swap of two units of an H with no other arrows is harmless: any
    permutation of a discrete groupoid's units is an automorphism of it, so
    ``to_parent`` stays an isomorphism onto the same arrows."""
    return kind == "swap" and emb.groupoid.unit_mask.all()


def _with_bundle(whole, emb):
    """A Subject of whole's semigroup that shares every structure whole has
    built, with emb as its centralizer embedding, its certificate unread."""
    sub = Subject(whole.S)
    sub.__dict__.update((key, value) for key, value in whole.__dict__.items()
                        if key not in ("z_in_beta", "bundle_defect"))
    sub.z_in_beta = emb          # shadows the cached property on this instance
    return sub


@pytest.mark.parametrize("name", SUBJECTS)
def test_every_bundle_corruption_fails_the_three_checks(name, monkeypatch):
    """Per kind, the three checks run alone, each over its own Subject, and
    then every check of every suite over one Subject through ``run_suite``.
    Each kind applies on some subject, and each catches or is harmless."""
    whole = Subject(builtin(name))
    for suite in SUITE_NAMES:
        assert all(result.passed for result in run_checks(whole, suite)), (name, suite)
    for kind in KINDS:
        broken = _corrupt(whole.z_in_beta, kind)
        if broken is None:
            continue
        witness = None if _harmless(whole.z_in_beta, kind) else embedding_defect(broken)
        assert _harmless(whole.z_in_beta, kind) or witness, (name, kind)
        alone = [run_checks(_with_bundle(whole, broken), check)[0] for check in BUNDLE_CHECKS]
        sub = _with_bundle(whole, broken)
        monkeypatch.setattr(suites, "_subject", lambda S: sub)
        within = [result for report in run_suite(name, whole.S, "all")
                  for result in report.checks if result.name in BUNDLE_CHECKS]
        for result in alone + within:
            if witness is None:
                assert result.passed, (name, kind, result.name)
            else:
                assert (result.passed, result.witness) == (False, witness), (name, kind)


def test_every_kind_applies_and_is_caught_somewhere():
    """Each kind applies, and fails the certificate, on some subject: the
    sweep above is not vacuous."""
    caught = {kind for name in SUBJECTS for kind in KINDS
              for emb in [Subject(builtin(name)).z_in_beta]
              if (broken := _corrupt(emb, kind)) is not None
              and not _harmless(emb, kind) and embedding_defect(broken)}
    assert caught == set(KINDS)
