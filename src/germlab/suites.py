"""Verification suites: named checks over a subject semigroup, with reports.

Each check verifies one invariant of the library's structure theory and
belongs to exactly one suite:

    universal   order/congruence/spectrum structure and the universal groupoid
    tight       the tight action, kernels, and the base-hypothesis dichotomy
    extension   projection onto the fundamental quotient, cocycles, splittings
    algebra     the convolution *-algebra, embeddings, expectations

A check is declared once, at module level: ``@check(suite, name,
statement)`` over a body that takes the subject's ``Subject`` and returns
``(ok, witness)``.  ``corpus_wide=True`` marks a check that takes no
subject (its body gets None) and runs once per corpus.  ``run_checks``
runs a suite's checks in declaration order, which is their report order,
and turns a ``StructureError`` into an ``error: ...`` failure witness;
``run_suite``, ``global_reports`` and the tests all go through it.  Failures always carry a concrete witness, and two runs of
a suite produce byte-identical reports.

``run_suite`` hands one ``extensions.Subject`` to every check it runs, and
consecutive calls on the same semigroup object share it, so each structure
is built at most once per semigroup.  Only the last call's Subject is held;
the next call on another semigroup drops it.  The constructors validate
only their input: the theorems about what they build (mu is an
idempotent-separating congruence inside H, the centralizer and the action
kernels are normal subsemigroups, the Munn semigroup is fundamental, the
germs of S, of its tight action and of S/mu are groupoids, by their element
maps, the projection and the cocycle are homomorphisms, ...) are checked
here, each by one named check.  Each structure is certified once: S/mu,
also for ``congruence.mu_inside_h``, and S/sigma by the congruence check in
``quotient``, not by Light's test, and the cocycle's group by
``group_quotient``, not as a groupoid again.  So is each certificate that
several checks read, cached on the Subject: ``star_defect`` for the
C*-identity and its two corollaries; ``bundle_defect`` for the embedding,
the conditional expectation and its faithfulness; ``certified_beta``, G(S)
by its element map, for ``germ.groupoid_axioms``, the fibers and the
projection, whose source it is (and target, when S is fundamental).  Each
check reads its certificate itself, so it fails alone as in a suite.  No
check runs an isomorphism search: each isomorphism is certified along a
given map (E onto the Munn semigroup's identity rows, isotropy fibers onto
class groups, G(S) onto the semidirect product by unique factorization),
and checks that read only an arrow set take ``germs_of`` rather than an
extracted subgroupoid copy.

Element and arrow subsets are boolean masks from the function that
computes them to the check that compares them, and a witness names the
first index of a difference; the spectrum checks compare filters as
bitmask words, and only ``tight.ultrafilters_maximal`` compares sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import algebra as alg
from .actions import (
    EmbeddedSubgroupoid,
    certify_germ_groupoid,
    domains_form_base,
    germ_equivalence_is_equivalence,
)
from .congruences import (
    Relation,
    kernel_of,
    largest_congruence_inside,
    mu_relation,
    related_products,
    transversal_defect,
    transversal_defect_text,
)
from .errors import NotACongruence, StructureError
from .extensions import Subject
from .groupoids import (
    hom_kernel,
    is_effective,
    is_essentially_principal,
    is_group_bundle,
    is_open,
    is_strongly_surjective,
    interior_witnesses,
    validate_hom,
)
from .semigroups import (
    InverseSemigroup,
    distinct,
    first_index,
    is_e_unitary,
    is_zero_e_unitary,
    normality_defect,
)
from .semilattices import (
    EXHAUSTIVE_FILTER_CAP,
    filter_defects,
    filter_words,
    munn_rows,
    partial_bijection_semigroup,
    principal_filter,
    row_finder,
    symmetric_inverse_monoid,
    ultrafilters,
    up_set_filters,
)

SUITE_NAMES = ("universal", "tight", "extension", "algebra")
MUNN_CHECK_CAP = 10          # skip the Munn construction for larger semilattices


@dataclass
class CheckResult:
    name: str
    statement: str
    passed: bool
    witness: str = ""

    def render(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        line = f"[{tag}] {self.name} :: {self.statement}"
        if self.witness:
            line += f" :: {self.witness}"
        return line


@dataclass
class VerificationReport:
    subject: str
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"== verify {self.subject} (suite={self.suite}) =="]
        lines += [c.render() for c in self.checks]
        n_fail = sum(1 for c in self.checks if not c.passed)
        lines.append(f"== {self.subject}: {len(self.checks)} checks, "
                     f"{len(self.checks) - n_fail} passed, {n_fail} failed ==")
        return "\n".join(lines)


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    statement: str
    body: Callable[[Subject | None], tuple[bool, str]]
    corpus_wide: bool


CHECKS: list[Check] = []      # every declared check, in report order


def check(suite: str, name: str, statement: str, corpus_wide: bool = False):
    """Declare the decorated body as the next check of a suite."""
    def declare(body):
        CHECKS.append(Check(suite, name, statement, body, corpus_wide))
        return body
    return declare


def run_checks(sub: Subject | None, suite: str) -> list[CheckResult]:
    """Run the checks of a suite in declaration order: the subject's checks
    over ``sub``, or the corpus-wide ones when ``sub`` is None.  A check's
    own name in place of ``suite`` runs that check alone."""
    results = []
    for c in CHECKS:
        if c.name != suite and (c.suite, c.corpus_wide) != (suite, sub is None):
            continue
        try:
            ok, witness = c.body(sub)
        except StructureError as exc:
            ok, witness = False, f"error: {exc}"
        results.append(CheckResult(c.name, c.statement, bool(ok), witness))
    return results


# ---------------------------------------------------------------------------
# universal suite


@check("universal", "semigroup.natural_order", "the natural order is a partial order")
def _natural_order(sub):
    """Certify that S.leq is a partial order, on the boolean matrix.

    Reflexive: the diagonal is all True.  Antisymmetric: L & L^T is empty
    off the diagonal.  Transitive: no pair is reachable in two steps
    (a product L @ L) without being in L.  O(n^2) memory and one n x n
    matrix product, against an O(n^3) loop over triples.  The product is
    a float32 BLAS matmul: its entries count paths, whole numbers at most
    n, and every partial sum is exact while n < 2^24.
    """
    S = sub.S
    L = S.leq
    unreflexive = np.flatnonzero(~L.diagonal())
    if unreflexive.size:
        return False, f"not reflexive at {unreflexive[0]}"
    both = L & L.T
    np.fill_diagonal(both, False)
    if both.any():
        a, b = np.argwhere(both)[0]
        return False, f"not antisymmetric at ({a},{b})"
    steps = L.astype(np.float32)
    gaps = (steps @ steps > 0) & ~L
    if gaps.any():
        a, c = np.argwhere(gaps)[0]
        b = np.flatnonzero(L[a] & L[:, c])[0]
        return False, f"not transitive at ({a},{b},{c})"
    return True, f"order checked on {S.size} elements"


@check("universal", "semigroup.idempotents_closed",
       "idempotents form a commutative subsemigroup")
def _idempotents_closed(sub):
    """The products ef of idempotents, row-major over (e, f): each is an
    idempotent and equals fe."""
    S = sub.S
    E = S.idempotent_array
    ef = S.table[np.ix_(E, E)]
    leaves = ~S.idempotent_mask[ef]
    hit = first_index(leaves | (ef != ef.T))
    if hit is not None:
        e, f = E[list(hit)].tolist()
        return False, (f"product {e},{f} leaves the idempotents" if leaves[hit]
                       else f"idempotents {e},{f} do not commute")
    return True, f"{len(E)} idempotents form a commutative subsemigroup"


@check("universal", "semigroup.h_class_groups",
       "the class of each idempotent is a group with that identity")
def _h_class_groups(sub):
    """Over the pairs (e, a), a in the class of e, in order: e is a
    two-sided identity on a, aa* = e, and a times the class stays in it."""
    S = sub.S
    T, h, E = S.table, S.h_partition.labels, S.idempotent_array
    i, a = np.nonzero(h[E][:, None] == h)
    e = E[i]
    not_identity = (T[e, a] != a) | (T[a, e] != a)
    escapes = (h[e][:, None] == h) & (h[T[a]] != h[e][:, None])
    hit = first_index(not_identity | (T[a, S.inv[a]] != e) | escapes.any(axis=1))
    if hit is not None:
        (i,) = hit
        return False, (f"{e[i]} is not an identity on its class" if not_identity[i]
                       else f"class of {e[i]} is not a group (witness {a[i]})")
    return True, "every idempotent's class is a group"


@check("universal", "semigroup.centralizer_normal",
       "the centralizer of the idempotents is a normal subsemigroup")
def _centralizer_normal(sub):
    defect = normality_defect(sub.S, sub.Z)
    if defect is not None:
        return False, defect
    return True, f"centralizer has {np.count_nonzero(sub.Z)} elements"


@check("universal", "semigroup.clifford_iff_central",
       "the semigroup is Clifford exactly when the centralizer is everything")
def _clifford_iff_central(sub):
    return (sub.clifford == sub.Z.all(),
            f"clifford={sub.clifford}")


@check("universal", "congruence.mu_inside_h",
       "the idempotent-conjugation congruence refines Green's H")
def _mu_inside_h(sub):
    """mu separates idempotents, refines H, and is a congruence.

    One pass over mu's labels: the idempotents counted per block, and the
    elements whose H class differs from their block's least element's.  The
    first block, in block order, with two idempotents or such an element
    is the witness, as a walk over the blocks would find it.  mu is a
    congruence by S/mu's certificate, whose ``NotACongruence`` names one.
    """
    S, mu = sub.S, sub.mu
    h, idems = S.h_partition.labels, S.idempotent_array
    shared = np.bincount(mu.labels[idems], minlength=mu.count) > 1
    apart = h != h[mu.reps[mu.labels]]
    across = np.bincount(mu.labels[apart], minlength=mu.count) > 0
    hit = first_index(shared | across)
    if hit is not None:
        (b,) = hit
        if shared[b]:
            e, f = idems[mu.labels[idems] == b][:2]
            return False, f"relates idempotents {e} and {f}"
        return False, (f"relates {mu.reps[b]} and "
                       f"{np.flatnonzero(apart & (mu.labels == b))[0]} across H classes")
    try:
        sub.mu_quotient
    except NotACongruence as failure:
        return False, f"not a congruence at {failure.witness}"
    return True, f"{mu.count} blocks"


@check("universal", "congruence.mu_maximal",
       "the largest congruence inside Green's H is the maximal idempotent-separating one")
def _mu_maximal(sub):
    """Partition refinement of H by the generators, against mu's rows s e s*."""
    S, mu = sub.S, sub.mu
    top, rounds = largest_congruence_inside(S, S.h_partition)
    if top == mu:
        return True, f"equals mu: {top.count} blocks, stable at refinement round {rounds}"
    x, y = first_index((top.labels[:, None] == top.labels) != (mu.labels[:, None] == mu.labels))
    if top.related(x, y):
        return False, f"the largest congruence inside H relates {x} and {y}, mu does not"
    return False, f"mu relates {x} and {y}, the largest congruence inside H does not"


@check("universal", "congruence.kernel_mu_is_centralizer",
       "the kernel of the maximal idempotent-separating congruence is the centralizer")
def _kernel_mu(sub):
    """The blocks of mu meeting the idempotents hold exactly the products
    s t* over related pairs, and they make up the centralizer."""
    kernel = kernel_of(sub.S, sub.mu)
    via_pairs = related_products(sub.S, sub.mu)
    if not np.array_equal(via_pairs, kernel):
        return False, f"kernel cross-check fails at {np.flatnonzero(via_pairs ^ kernel)[0]}"
    return np.array_equal(kernel, sub.Z), f"{np.count_nonzero(sub.Z)} elements"


@check("universal", "congruence.quotient_fundamental",
       "the quotient by the maximal idempotent-separating congruence is fundamental")
def _quotient_fundamental(sub):
    """mu of S/mu is the identity; when S/mu is S, that mu is the Subject's."""
    T = sub.mu_quotient.target
    return (sub.mu if T is sub.S else mu_relation(T)).is_identity, ""


@check("universal", "spectrum.filter_closures",
       "every filter is nonempty, meet-closed, upward closed, zero-free")
def _filter_closures(sub):
    """The principal filters of the spectrum points, the rows E.order[points],
    tested against the definition by ``filter_defects``; the first bad row
    in point order is the witness."""
    E, points = sub.E, sub.points
    members = E.order[points]
    hit = first_index(filter_defects(E, members))
    if hit is not None:
        return False, f"{np.flatnonzero(members[hit[0]]).tolist()} fails a closure property"
    return True, f"{points.size} filters"


@check("universal", "spectrum.filters_principal",
       "the filters are exactly the principal upward closures")
def _filters_principal(sub):
    """The spectrum points name the principal filters, and they must be
    exactly the subsets of E that are filters.  Every filter is an up-set,
    so ``up_set_filters``, which tests every up-set of E with
    ``filter_defects``, finds all of them; both sides are compared as sets
    of bitmask words.  Above EXHAUSTIVE_FILTER_CAP idempotents the up-sets
    are too many to enumerate, and the check says it skipped."""
    E, points = sub.E, sub.points
    if E.size > EXHAUSTIVE_FILTER_CAP:
        return True, f"skipped: {E.size} idempotents exceed the enumeration cap"
    if not np.array_equal(distinct(up_set_filters(E)), distinct(filter_words(E.order[points]))):
        return False, "enumerated filters differ from the principal ones"
    return True, f"{points.size} principal filters"


@check("universal", "spectrum.munn_fundamental",
       "the Munn semigroup is fundamental over the same semilattice")
def _munn_fundamental(sub):
    """T_E is fundamental, and e -> 1_{down e} maps E onto E(T_E), no search:
    phi(e), the identity row of the ideal below e, is found among T's rows
    by key, must be onto T's idempotents and must carry meets to products."""
    E = sub.E
    if E.size > MUNN_CHECK_CAP:
        return True, f"skipped: {E.size} idempotents exceed the check cap"
    rows, labels = munn_rows(E)
    T = partial_bijection_semigroup(rows, labels)
    wide = next((b for b in mu_relation(T).blocks if len(b) > 1), None)
    if wide is not None:
        return False, f"not fundamental: mu relates {wide[0]} and {wide[1]}"
    phi = row_finder(rows)(np.where(E.order.T, np.arange(E.size), -1))
    if not (np.array_equal(np.sort(phi), T.idempotent_array)
            and (T.table[np.ix_(phi, phi)] == phi[E.meet]).all()):
        return False, "idempotent semilattice changed"
    return True, f"{T.size} ideal isomorphisms"


@check("universal", "germ.equivalence", "germ identification is an equivalence on each fiber")
def _germ_equivalence(sub):
    return germ_equivalence_is_equivalence(sub.universal), ""


@check("universal", "germ.groupoid_axioms",
       "the universal germ groupoid satisfies the groupoid axioms")
def _groupoid_axioms(sub):
    """Certified by the element map (``Subject.certified_beta``)."""
    return True, f"{sub.certified_beta.groupoid.n_arrows} arrows"


@check("universal", "germ.idempotent_units", "idempotent germs form exactly the unit space")
def _idempotent_units(sub):
    arrows = sub.beta.germs_of(sub.S.idempotent_array)
    if not np.array_equal(arrows, sub.beta.groupoid.unit_mask):
        return False, "idempotent germs are not exactly the units"
    return True, f"{np.count_nonzero(arrows)} units"


@check("universal", "germ.clifford_group_bundle",
       "Clifford semigroups have group-bundle universal groupoids")
def _clifford_group_bundle(sub):
    if not sub.clifford:
        return True, "vacuous: not Clifford"
    if not is_group_bundle(sub.beta.groupoid):
        return False, "an arrow moves its unit"
    return True, "every arrow fixes its unit"


@check("universal", "germ.kernel_is_centralizer",
       "the kernel of the universal action is the centralizer")
def _universal_kernel(sub):
    return (np.array_equal(sub.universal_kernel, sub.Z),
            f"{np.count_nonzero(sub.Z)} elements")


def _principal_units(germs) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero idempotents e, in element order, and the unit at the
    principal point of each (``GermGroupoid.principal_points``); -1 where
    no point has m_x = e."""
    S = germs.action.semigroup
    E = S.idempotent_array
    E = E[E != (-1 if S.zero is None else S.zero)]
    return E, np.append(germs.unit_at_point, -1)[germs.principal_points[E]]


def _first_fiber_failure(E: np.ndarray, units: np.ndarray, failed: np.ndarray) -> int | None:
    """The first idempotent, in element order, that has no principal point
    (an error, as ``GermGroupoid.principal_point`` raises it) or whose
    fiber failed; None when there is none."""
    hit = first_index((units < 0) | failed)
    if hit is None:
        return None
    if units[hit[0]] < 0:
        raise StructureError(f"no point is generated by idempotent {E[hit[0]]}")
    return hit[0]


def _classes_differ(E: np.ndarray, owner: np.ndarray, image: np.ndarray,
                    labels: np.ndarray) -> np.ndarray:
    """Per idempotent e of E, whether the elements image[owner == i] (i the
    index of e), taken as a set, differ from e's class under the labels:
    one lies outside it, or the distinct ones are fewer than its members."""
    n, k = labels.size, E.size
    stray = np.bincount(owner[labels[image] != labels[E[owner]]], minlength=k) > 0
    found = np.bincount(distinct(owner * n + image) // n, minlength=k)
    return stray | (found != np.bincount(labels)[labels[E]])


@check("universal", "germ.fibers_are_h_classes",
       "the isotropy group at each principal point is the idempotent's class group")
def _fibers_are_h_classes(sub):
    """Certify each isotropy fiber isomorphic to its class group, no search.

    At the principal point x of a nonzero idempotent e (so m_x = e) the
    germ [s, x] maps to s m_x: the element map, multiplicative by
    ``Subject.certified_beta``.  It is checked to be a bijection of the
    fiber onto H_e, so an isomorphism of groups.  All fibers at once: the
    loops r = d = u are grouped by the idempotent whose principal unit u
    is.  H_e is a set, so the images are H_e exactly when, as a set, they
    are H_e (``_classes_differ``) and they number |H_e|.  The first fiber,
    by idempotent, that is not a bijection is the witness, or else the
    element map's first failure.
    """
    S, germs = sub.S, sub.beta
    G = germs.groupoid
    E, units = _principal_units(germs)
    owner, fiber = np.nonzero((G.r == G.d) & (G.d == units[:, None]))     # the loops at each unit
    h = S.h_partition.labels
    unlike = (_classes_differ(E, owner, germs.canonical_elements(fiber), h)
              | (np.bincount(owner, minlength=E.size) != np.bincount(h)[h[E]]))
    i = _first_fiber_failure(E, units, unlike)
    if i is not None:
        return False, f"fiber at idempotent {E[i]} differs from its class group"
    sub.certified_beta      # raises the element map's first failure
    return True, "all isotropy fibers certified isomorphic"


@check("universal", "groupoid.containment_chain",
       "centralizer germs sit inside the isotropy interior inside the isotropy")
def _containment_chain(sub):
    """Z-germs inside the interior inside the isotropy, as masks; then at the
    principal unit u of each nonzero idempotent e, the elements s m_x of
    the Z-germs with source u, as a set, are exactly e's mu class.  All
    idempotents at once: the Z-germs are grouped by the idempotent whose
    principal unit their source is (``_classes_differ``)."""
    G = sub.beta.groupoid
    z_arrows = sub.z_in_beta.arrows
    inner, iso = G.isotropy_interior, G.isotropy
    if (z_arrows & ~inner).any() or (inner & ~iso).any():
        return False, "containment chain broken"
    E, units = _principal_units(sub.beta)
    owner, arrow = np.nonzero((G.d == units[:, None]) & z_arrows)
    differ = _classes_differ(E, owner, sub.beta.canonical_elements(arrow), sub.mu.labels)
    i = _first_fiber_failure(E, units, differ)
    if i is not None:
        return False, f"centralizer fiber at {E[i]} is not its congruence class"
    return True, (f"|Z-germs|={np.count_nonzero(z_arrows)} <= "
                  f"|interior|={np.count_nonzero(inner)} <= |iso|={np.count_nonzero(iso)}")


@check("universal", "groupoid.cryptic_equality",
       "cryptic: centralizer germs equal the isotropy interior; else a witness exists")
def _cryptic_equality(sub):
    G = sub.beta.groupoid
    inner = G.isotropy_interior
    z_arrows = sub.z_in_beta.arrows
    if sub.mu == sub.S.h_partition:      # cryptic
        if not np.array_equal(z_arrows, inner):
            return False, "cryptic but the centralizer germs miss interior arrows"
        return True, f"equal arrow sets ({np.count_nonzero(inner)} arrows)"
    extra = np.flatnonzero(inner & ~z_arrows)
    if not extra.size:
        return False, "not cryptic but no witness arrow found"
    a = int(extra[0])
    label = interior_witnesses(G, G.isotropy)[a]
    return True, f"witness {G.label(a)} in interior via {label}"


@check("universal", "groupoid.centralizer_subgroupoid",
       "the centralizer germs form an open wide normal (and closed) subgroupoid")
def _centralizer_subgroupoid(sub):
    props = sub.z_in_beta.properties
    missing = [n for n, ok in (("subgroupoid", props.is_subgroupoid),
                               ("open", props.open), ("wide", props.wide),
                               ("normal", props.normal), ("closed", props.closed))
               if not ok]
    if missing:
        return False, f"missing: {','.join(missing)}"
    return True, "open, closed, wide, normal"


@check("universal", "groupoid.principal_iff_effective",
       "essential principality and effectiveness agree on finite groupoids")
def _principal_iff_effective(sub):
    principal = is_essentially_principal(sub.beta.groupoid)
    return principal == is_effective(sub.beta.groupoid), f"both={principal}"


@check("universal", "spectrum.partial_bijection_counts",
       "partial bijection monoids have their predicted sizes up to n=4", corpus_wide=True)
def _partial_bijection_counts(sub):
    from math import comb, factorial

    for n in range(5):
        expected = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
        if symmetric_inverse_monoid(n).size != expected:
            return False, f"count differs at n={n}"
    return True, "sizes 1, 2, 7, 34, 209 confirmed"


# ---------------------------------------------------------------------------
# tight suite


def _spectrum(sub: Subject) -> list[frozenset[int]]:
    """The subject's spectrum points as sets: the input of the set-level oracle below."""
    return [principal_filter(sub.E, g) for g in sub.points.tolist()]


@check("tight", "tight.ultrafilters_maximal",
       "ultrafilters are the maximal filters and exhaust the tight spectrum")
def _ultrafilters_maximal(sub):
    """The ultrafilters, the tight spectrum here, which ``ultrafilters``
    reads off the atoms of E, are exactly the maximal filters, found by
    testing every pair of spectrum filters for strict inclusion: an oracle
    that reads no atom."""
    ultra = ultrafilters(sub.E)
    filters = _spectrum(sub)
    maximal = [F for F in filters if not any(F < G for G in filters)]
    for F in ultra:
        if F not in maximal:
            return False, f"{sorted(F)} is not maximal"
    if len(set(ultra)) != len(maximal):
        return False, "a maximal filter is not an ultrafilter"
    return True, f"{len(ultra)} ultrafilters"


@check("tight", "tight.action_valid",
       "the restriction to the tight spectrum is a valid action, and its germ groupoid "
       "satisfies the groupoid axioms")
def _tight_action_valid(sub):
    g = sub.theta
    certify_germ_groupoid(g)
    return True, f"{g.groupoid.n_arrows} arrows over {g.action.space_size} points"


@check("tight", "tight.domain_injectivity",
       "0-disjunctive semilattices give idempotent-separating tight actions")
def _domain_injectivity(sub):
    if sub.E.zero is None:
        return True, "vacuous: no zero"
    if not sub.zero_disjunctive:
        return True, "vacuous: not 0-disjunctive"
    E = sub.S.idempotent_array
    domains = Relation(sub.tight.maps[E] >= 0)
    least = domains.reps[domains.labels]        # per e, the least e' with its domain
    clash = np.flatnonzero(least != np.arange(E.size))
    if clash.size:
        i = clash[0]
        return False, f"idempotents {E[least[i]]} and {E[i]} share a domain"
    return True, "idempotents have distinct tight domains"


@check("tight", "tight.interior_equality",
       "0-disjunctive: centralizer germs equal the tight isotropy interior")
def _interior_equality(sub):
    if not sub.zero_disjunctive:
        return True, "vacuous: not 0-disjunctive"
    inner = sub.theta.groupoid.isotropy_interior
    if not np.array_equal(sub.theta.germs_of(sub.Z), inner):
        return False, "centralizer germs differ from the isotropy interior"
    extra = ""
    if sub.mu.is_identity:      # fundamental
        if not is_essentially_principal(sub.theta.groupoid):
            return False, "fundamental and 0-disjunctive but not essentially principal"
        extra = "; essentially principal (fundamental case)"
    return True, f"equal ({np.count_nonzero(inner)} arrows){extra}"


@check("tight", "tight.kernel_is_centralizer",
       "0-disjunctive: the tight action's kernel is the centralizer")
def _tight_kernel(sub):
    if not sub.zero_disjunctive:
        return True, "vacuous: not 0-disjunctive"
    if not np.array_equal(sub.tight_kernel, sub.Z):
        return False, "tight kernel differs from the centralizer"
    return True, f"kernel has {np.count_nonzero(sub.Z)} elements"


def _base_dichotomy(S, germs, J, tag):
    """J, the action's kernel, is the normal subsemigroup of elements that
    act as identities; its germs are open isotropy, and equal the isotropy
    interior when the idempotent domains form a base.  Normality certifies
    that J is closed, so its germs form a subgroupoid."""
    defect = normality_defect(S, J)
    if defect is not None:
        return False, f"{tag}: kernel is not normal: {defect}"
    maps = germs.action.maps
    identities = ((maps < 0) | (maps == np.arange(maps.shape[1]))).all(axis=1)
    if not np.array_equal(J, identities):
        return False, f"{tag}: kernel cross-check fails at {np.flatnonzero(J ^ identities)[0]}"
    arrows = germs.germs_of(J)
    G = germs.groupoid
    if (arrows & ~G.isotropy).any():
        return False, f"{tag}: kernel germs leave the isotropy"
    if not is_open(G, arrows):
        return False, f"{tag}: kernel germs are not open"
    if domains_form_base(germs.action):
        if not np.array_equal(arrows, G.isotropy_interior):
            return False, f"{tag}: base hypothesis holds but equality fails"
        return True, f"{tag}: base holds, kernel germs = isotropy interior"
    return True, f"{tag}: no base; kernel germs open inside isotropy"


@check("tight", "tight.base_dichotomy_universal",
       "kernel germs are open isotropy; equal to the interior under the base hypothesis")
def _base_dichotomy_universal(sub):
    return _base_dichotomy(sub.S, sub.beta, sub.universal_kernel, "universal")


@check("tight", "tight.base_dichotomy_tight", "same dichotomy for the tight action")
def _base_dichotomy_tight(sub):
    return _base_dichotomy(sub.S, sub.theta, sub.tight_kernel, "tight")


@check("tight", "tight.graph_zero_disjunctive",
       "a graph semigroup is 0-disjunctive exactly when no vertex has in-degree 1")
def _graph_zero_disjunctive(sub):
    graph = sub.S.graph
    if graph is None:
        return True, "vacuous: not a graph semigroup subject"
    has_in_degree_one = any(graph.in_degree(v) == 1 for v in range(graph.n_vertices))
    disj = sub.zero_disjunctive
    if has_in_degree_one and disj:
        return False, "in-degree-1 vertex but still 0-disjunctive"
    if not has_in_degree_one and not disj:
        return False, "no in-degree-1 vertex but not 0-disjunctive"
    return True, f"in-degree-1 present={has_in_degree_one}, 0-disjunctive={disj}"


# ---------------------------------------------------------------------------
# extension suite


@check("extension", "extension.projection_strongly_surjective",
       "the fundamental quotient's germ groupoid satisfies the groupoid axioms, and the "
       "projection onto it is a strongly surjective homomorphism")
def _projection_strongly_surjective(sub):
    proj = sub.projection
    if proj.target is not sub.certified_beta:       # G(S), the source, certified once
        certify_germ_groupoid(proj.target)      # the germs of S/mu, by their element map
    validate_hom(proj.hom)
    if not is_strongly_surjective(proj.hom):
        return False, "a fiber is not covered"
    note = ""
    if sub.mu.is_identity:      # fundamental
        if not np.array_equal(np.sort(proj.hom.map), np.arange(proj.target.groupoid.n_arrows)):
            return False, "fundamental but the projection is not a bijection"
        note = " (isomorphism: fundamental case)"
    return True, (f"{proj.source.groupoid.n_arrows} arrows project onto "
                  f"{proj.target.groupoid.n_arrows}{note}")


@check("extension", "extension.projection_kernel",
       "the projection kernel is the centralizer groupoid when the quotient is (0-)E-unitary")
def _projection_kernel(sub):
    proj = sub.projection
    kernel = hom_kernel(proj.hom)
    z_arrows = sub.z_in_beta.arrows
    if (z_arrows & ~kernel).any():
        return False, "centralizer germs escape the kernel"
    T = proj.quotient.target
    unitary = (is_zero_e_unitary(T) if T.zero is not None else is_e_unitary(T))
    if not unitary:
        return True, "containment only (quotient is not (0-)E-unitary)"
    if not np.array_equal(kernel, z_arrows):
        return False, "unitary quotient but kernel exceeds the centralizer germs"
    return True, f"kernel = centralizer germs ({np.count_nonzero(kernel)} arrows)"


@check("extension", "extension.sigma_group_image",
       "the least group congruence has a group quotient")
def _sigma_group_image(sub):
    return True, f"group image of order {sub.group_image.target.size}"


@check("extension", "extension.sigma_cocycle",
       "the group-image cocycle is a homomorphism; E-unitary kernels are the units")
def _sigma_cocycle(sub):
    S = sub.S
    if S.zero is not None:
        return True, "vacuous: zero present"
    hom, germs = sub.cocycle
    validate_hom(hom)
    units = germs.groupoid.unit_mask
    kernel = hom_kernel(hom)
    if (units & ~kernel).any():
        return False, "units escape the cocycle kernel"
    if is_e_unitary(S):
        if not np.array_equal(kernel, units):
            return False, "E-unitary but the cocycle kernel exceeds the units"
        return True, f"kernel = units ({np.count_nonzero(units)})"
    return True, f"kernel has {np.count_nonzero(kernel)} arrows (not E-unitary)"


@check("extension", "extension.split_transversal",
       "any split transversal found is a multiplicative section")
def _split_transversal(sub):
    r = sub.transversal
    if r == "budget":
        return True, "skipped: search budget exceeded"
    if r is None:
        return True, "no multiplicative transversal exists"
    defect = transversal_defect(sub.S, sub.mu_quotient, r)
    if defect is not None:
        return False, transversal_defect_text(defect)
    return True, f"transversal {list(r)}"


@check("extension", "extension.semidirect_decomposition",
       "split extensions decompose the universal groupoid as a semidirect product")
def _semidirect_decomposition(sub):
    r = sub.transversal
    if r in (None, "budget"):
        return True, "vacuous: no transversal"
    dec = sub.split_decomposition(r)
    return True, (f"product with {len(dec.factors)} arrows certified "
                  f"isomorphic to the universal groupoid")


# ---------------------------------------------------------------------------
# algebra suite: exact index certificates, with no samples and no floats


@check("algebra", "algebra.cstar_identity",
       "each orbit block of the regular representation is a *-homomorphism,"
       " so the norm satisfies the C*-identity")
def _cstar_identity(sub):
    """The exact certificate ``Subject.star_defect``, read by the two
    corollaries below too: no samples and no tolerance."""
    G = sub.beta.groupoid
    if sub.star_defect is not None:
        return False, sub.star_defect
    sizes = Counter()
    for stack, _, _ in G.fiber_stacks:          # (orbits, r, r, o): fibers of size r o
        sizes[stack.shape[1] * stack.shape[3]] += len(stack)
    listed = ", ".join(f"{s}" if k == 1 else f"{s} x{k}" for s, k in sorted(sizes.items()))
    return True, f"orbit blocks certified: {sizes.total()}, of fiber sizes {listed}"


@check("algebra", "algebra.embedding_isometric",
       "extension by zero from the centralizer bundle is an isometric *-homomorphism")
def _embedding_isometric(sub):
    """The exact certificate ``Subject.bundle_defect``, with no tolerance.
    The bundle's blocks at the units of G are its cosets, H_u c over the
    arrows c of range u, so there are |r^-1(u)| / |H_u| at u."""
    G, t = sub.z_in_beta.parent, sub.z_in_beta.to_parent
    if sub.bundle_defect is not None:
        return False, sub.bundle_defect
    blocks = (np.bincount(G.r, minlength=G.n_arrows)[G.units]
              // np.bincount(G.r[t], minlength=G.n_arrows)[G.units]).sum()
    return True, f"units certified: {G.units.size}, bundle blocks: {blocks}"


@check("algebra", "algebra.conditional_expectation",
       "restriction to the centralizer bundle is an idempotent bimodule projection")
def _conditional_expectation(sub):
    """A corollary of the closed-bundle hypotheses and the embedding
    certificate ``Subject.bundle_defect``, with G's groupoid laws from
    ``germ.groupoid_axioms``; E restricts along t = ``to_parent``.
    - Map: t is an isomorphism onto the subgroupoid's arrows, so ``embed``
      writes h(k) at t(k) alone, E(embed(h)) = h and E is idempotent.
    - Cosets give crossing: in the d-fiber of a unit x, w in H shares x's
      class (w x^-1 = w is in H) and y off H does not, so w y^-1 is off H.
    - Reach and wide give units, t maps H's units onto G's: reach makes
      H's units the t^-1 r(l) over the class leads l, units of G; a unit x
      of G is in H by wide, so its class's lead l is in H, r(l) = d(l) = x.
    ``convolve`` sums over the pairs of a fiber, so for a and b on H,
    crossing leaves only factorizations inside H, which t matches with H's:
    E(embed(a) f embed(b)) = a E(f) b."""
    alg.require_bundle(sub.z_in_beta, closed=True)
    H = sub.z_in_beta.groupoid
    return sub.bundle_defect is None, sub.bundle_defect or (
        f"bundle arrows certified: {H.n_arrows}, products: {np.count_nonzero(H.table >= 0)}")


@check("algebra", "algebra.expectation_faithful",
       "the conditional expectation of f*f vanishes only on the zero function")
def _expectation_faithful(sub):
    emb = sub.z_in_beta
    alg.require_bundle(emb, closed=True)
    defect = sub.bundle_defect or alg.faithfulness_defect(emb)
    units = len(emb.parent.units)
    return defect is None, defect or f"(f*f)(u) sums |f(y)|^2 over d(y) = u, units: {units}"


def _star_corollary(sub):
    """Implied by ``Subject.star_defect`` (``algebra.star_representation_defect``)."""
    defect, n = sub.star_defect, sub.beta.groupoid.n_arrows
    return defect is None, defect or f"holds for all functions: faithful orbit blocks, arrows: {n}"


check("algebra", "algebra.convolution_associative",
      "convolution of integer-valued functions associates exactly")(_star_corollary)
check("algebra", "algebra.involution_antimultiplicative",
      "the involution reverses convolution products")(_star_corollary)


@check("algebra", "algebra.hypothesis_checker",
       "the embedding rejects a synthetic non-normal bundle", corpus_wide=True)
def _hypothesis_checker(_):
    from .errors import HypothesisFailed
    from .groupoids import extract_subgroupoid, make_groupoid

    # the pair groupoid on 2 points times Z2: arrow (i j) 2 + g is (i <- j; g)
    i, j, g = np.unravel_index(np.arange(8), (2, 2, 2))
    table = np.where(j[:, None] == i, (i[:, None] * 2 + j) * 2 + (g[:, None] ^ g), -1)
    G = make_groupoid(i * 6, j * 6, (j * 2 + i) * 2 + g, table)
    arrows = np.zeros(8, dtype=bool)
    arrows[[0, 1, 6]] = True                       # (0 <- 0; 0), (0 <- 0; 1), (1 <- 1; 0)
    sub, order = extract_subgroupoid(G, arrows)
    emb = EmbeddedSubgroupoid(G, arrows, sub, order)
    try:
        alg.embed(emb, alg.delta(sub, 0))
    except HypothesisFailed as exc:
        if exc.name == "normal":
            return True, "non-normal bundle rejected"
        return False, f"rejected for the wrong reason: {exc.name}"
    return False, "non-normal bundle accepted"


# ---------------------------------------------------------------------------
# orchestration


# The Subject of the last run_suite call, reused by the next call on the same
# semigroup object and dropped by a call on another: InverseSemigroup defines
# no __eq__, so the key is the object's identity.
_subject = lru_cache(maxsize=1)(Subject)


def run_suite(name: str, S: InverseSemigroup, suite: str) -> list[VerificationReport]:
    """Per-subject reports for one suite (or all of them), over one Subject.

    Consecutive calls on the same semigroup object share its Subject, so
    each structure is built once per semigroup, not once per call; at most
    one Subject, the last call's, is held between calls."""
    suites = SUITE_NAMES if suite == "all" else (suite,)
    sub = _subject(S)
    reports = []
    for s in suites:
        if s not in SUITE_NAMES:
            raise StructureError(f"unknown suite '{s}'")
        reports.append(VerificationReport(name, s, run_checks(sub, s)))
    return reports


def global_reports(suite: str) -> list[VerificationReport]:
    """The corpus-wide checks, one report per suite that has any."""
    suites = SUITE_NAMES if suite == "all" else (suite,)
    reports = [VerificationReport("(corpus-wide)", s, run_checks(None, s))
               for s in suites]
    return [r for r in reports if r.checks]


def render_reports(reports: list[VerificationReport]) -> str:
    lines = [r.render() for r in reports]
    total = sum(len(r.checks) for r in reports)
    failed = sum(1 for r in reports for c in r.checks if not c.passed)
    lines.append(f"== total: {total} checks, {total - failed} passed, "
                 f"{failed} failed ==")
    return "\n".join(lines) + "\n"
