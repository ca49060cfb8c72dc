"""Verification suites: named checks over a subject semigroup, with reports.

Each check verifies one invariant of the library's structure theory and
belongs to exactly one suite:

    universal   order/congruence/spectrum structure and the universal groupoid
    tight       the tight action, kernels, and the base-hypothesis dichotomy
    extension   projection onto the fundamental quotient, cocycles, splittings
    algebra     the convolution *-algebra, embeddings, expectations

Failures always carry a concrete witness.  All randomness is seeded from the
subject name, so two runs of the same suite produce byte-identical reports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import algebra as alg
from .actions import (
    action_kernel,
    centralizer_germs,
    domains_form_base,
    germ_equivalence_is_equivalence,
    induced_subgroupoid,
)
from .builtins import NAMED_GRAPHS
from .congruences import (
    find_split_transversal,
    is_cryptic,
    is_fundamental,
    h_relation,
    kernel_of,
    mu_relation,
    munn_quotient,
    random_idempotent_separating_congruences,
    sigma_and_group_image,
    transversal_defect,
)
from .errors import SearchBudgetExceeded, StructureError
from .extensions import (
    mu_projection_hom,
    mu_projection_kernel,
    semidirect_from_split,
    sigma_cocycle,
    tight_germs,
    universal_germs,
)
from .groupoids import (
    GroupoidHom,
    extract_subgroupoid,
    group_as_groupoid,
    hom_kernel,
    is_effective,
    is_essentially_principal,
    is_group_bundle,
    is_open,
    is_strongly_surjective,
    iso_bundle,
    iso_interior,
    interior_witnesses,
    subgroupoid_properties,
    validate_groupoid,
    validate_hom,
)
from .semigroups import (
    InverseSemigroup,
    centralizer,
    h_class_of,
    idempotents,
    is_clifford,
    is_e_unitary,
    is_normal_subsemigroup,
    is_zero_e_unitary,
)
from .semilattices import (
    all_filters,
    is_filter,
    is_zero_disjunctive,
    munn_semigroup,
    principal_filter,
    semilattice_isomorphic,
    semilattice_of,
    symmetric_inverse_monoid,
)

SUITE_NAMES = ("universal", "tight", "extension", "algebra")
MUNN_CHECK_CAP = 10          # skip the Munn construction for larger semilattices
RANDOM_CONGRUENCE_SEED = 0x5EED
ALGEBRA_SAMPLES = 100


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


def _seed_for(subject: str, check: str) -> int:
    return zlib.crc32(f"{subject}/{check}".encode())


class SubjectContext:
    """Lazily computed structures shared by the checks of one suite run."""

    def __init__(self, name: str, S: InverseSemigroup):
        self.name = name
        self.S = S

    @cached_property
    def E(self):
        return semilattice_of(self.S)

    @cached_property
    def Z(self):
        return centralizer(self.S)

    @cached_property
    def mu(self):
        return mu_relation(self.S)

    @cached_property
    def beta(self):
        return universal_germs(self.S)

    @cached_property
    def theta(self):
        return tight_germs(self.S)

    @cached_property
    def z_in_beta(self):
        return centralizer_germs(self.beta)

    @cached_property
    def z_in_theta(self):
        return centralizer_germs(self.theta)


def _check(results: list[CheckResult], name: str, statement: str, fn) -> None:
    """Run one check body; any structural error becomes a failure witness."""
    try:
        ok, witness = fn()
    except StructureError as exc:
        ok, witness = False, f"error: {exc}"
    results.append(CheckResult(name, statement, bool(ok), witness))


# ---------------------------------------------------------------------------
# universal suite


def _fiber_elements(ctx: SubjectContext, arrows, unit: int) -> frozenset[int]:
    """Canonical semigroup elements of the germs in a set of arrows at a unit."""
    S, germs = ctx.S, ctx.beta
    out = set()
    for a in arrows:
        if germs.groupoid.d[a] == unit:
            s, x = germs.rep_of[a]
            out.add(S.mul(s, germs.base_idempotent[x]))
    return frozenset(out)


def run_universal_suite(ctx: SubjectContext) -> list[CheckResult]:
    S = ctx.S
    out: list[CheckResult] = []

    def natural_order():
        """Certify that S.leq is a partial order, on the boolean matrix.

        Reflexive: the diagonal is all True.  Antisymmetric: L & L^T is empty
        off the diagonal.  Transitive: no pair is reachable in two steps
        (an int32 product L @ L) without being in L.  O(n^2) memory and one
        n x n matrix product, against an O(n^3) loop over triples.
        """
        L = S.leq
        unreflexive = np.flatnonzero(~L.diagonal())
        if unreflexive.size:
            return False, f"not reflexive at {unreflexive[0]}"
        both = L & L.T
        np.fill_diagonal(both, False)
        if both.any():
            a, b = np.argwhere(both)[0]
            return False, f"not antisymmetric at ({a},{b})"
        steps = L.astype(np.int32)
        gaps = (steps @ steps > 0) & ~L
        if gaps.any():
            a, c = np.argwhere(gaps)[0]
            b = np.flatnonzero(L[a] & L[:, c])[0]
            return False, f"not transitive at ({a},{b},{c})"
        return True, f"order checked on {S.size} elements"

    _check(out, "semigroup.natural_order", "the natural order is a partial order",
           natural_order)

    def idem_closed():
        idems = sorted(idempotents(S))
        for e in idems:
            for f in idems:
                if S.mul(e, f) not in idempotents(S):
                    return False, f"product {e},{f} leaves the idempotents"
                if S.mul(e, f) != S.mul(f, e):
                    return False, f"idempotents {e},{f} do not commute"
        return True, f"{len(idems)} idempotents form a commutative subsemigroup"

    _check(out, "semigroup.idempotents_closed",
           "idempotents form a commutative subsemigroup", idem_closed)

    def h_groups():
        for e in sorted(idempotents(S)):
            block = h_class_of(S, e)
            for a in block:
                if S.mul(e, a) != a or S.mul(a, e) != a:
                    return False, f"{e} is not an identity on its class"
                if S.mul(a, S.inv[a]) != e or any(S.mul(a, b) not in block for b in block):
                    return False, f"class of {e} is not a group (witness {a})"
        return True, "every idempotent's class is a group"

    _check(out, "semigroup.h_class_groups",
           "the class of each idempotent is a group with that identity", h_groups)

    def centralizer_normal():
        if not idempotents(S) <= ctx.Z:
            return False, "some idempotent is missing"
        if not is_normal_subsemigroup(S, ctx.Z):
            return False, "not a normal subsemigroup"
        return True, f"centralizer has {len(ctx.Z)} elements"

    _check(out, "semigroup.centralizer_normal",
           "the centralizer of the idempotents is a normal subsemigroup",
           centralizer_normal)

    _check(out, "semigroup.clifford_iff_central",
           "the semigroup is Clifford exactly when the centralizer is everything",
           lambda: (is_clifford(S) == (ctx.Z == frozenset(S.elements())),
                    f"clifford={is_clifford(S)}"))

    _check(out, "congruence.mu_inside_h",
           "the idempotent-conjugation congruence refines Green's H",
           lambda: (ctx.mu.refines(h_relation(S)), f"{len(ctx.mu.blocks)} blocks"))

    def mu_maximal():
        seed = _seed_for(ctx.name, "mu_maximal")
        sampled = random_idempotent_separating_congruences(S, seed=seed)
        for R in sampled:
            if not R.refines(ctx.mu):
                return False, "a sampled idempotent-separating congruence escapes"
        return True, f"{len(sampled)} sampled congruences all refine it"

    _check(out, "congruence.mu_maximal_sampled",
           "sampled idempotent-separating congruences refine the maximal one",
           mu_maximal)

    _check(out, "congruence.kernel_mu_is_centralizer",
           "the kernel of the maximal idempotent-separating congruence is the centralizer",
           lambda: (kernel_of(S, ctx.mu) == ctx.Z, f"{len(ctx.Z)} elements"))

    _check(out, "congruence.quotient_fundamental",
           "the quotient by the maximal idempotent-separating congruence is fundamental",
           lambda: (is_fundamental(munn_quotient(S).target), ""))

    def filters_ok():
        filters = all_filters(ctx.E)
        for F in filters:
            if not is_filter(ctx.E, F):
                return False, f"{sorted(F)} fails a closure property"
        return True, f"{len(filters)} filters"

    _check(out, "spectrum.filter_closures",
           "every filter is nonempty, meet-closed, upward closed, zero-free",
           filters_ok)

    def filters_principal():
        filters = set(all_filters(ctx.E))
        principal = {principal_filter(ctx.E, e) for e in range(ctx.E.size)
                     if e != ctx.E.zero}
        if filters != principal:
            return False, "enumerated filters differ from the principal ones"
        return True, f"{len(filters)} principal filters"

    _check(out, "spectrum.filters_principal",
           "the filters are exactly the principal upward closures", filters_principal)

    def munn_ok():
        if ctx.E.size > MUNN_CHECK_CAP:
            return True, f"skipped: {ctx.E.size} idempotents exceed the check cap"
        T = munn_semigroup(ctx.E)
        if not is_fundamental(T):
            return False, "not fundamental"
        if semilattice_isomorphic(semilattice_of(T), ctx.E) is None:
            return False, "idempotent semilattice changed"
        return True, f"{T.size} ideal isomorphisms"

    _check(out, "spectrum.munn_fundamental",
           "the Munn semigroup is fundamental over the same semilattice", munn_ok)

    _check(out, "germ.equivalence",
           "germ identification is an equivalence on each fiber",
           lambda: (germ_equivalence_is_equivalence(ctx.beta.action), ""))

    def axioms():
        validate_groupoid(ctx.beta.groupoid)
        return True, f"{ctx.beta.groupoid.n_arrows} arrows"

    _check(out, "germ.groupoid_axioms",
           "the universal germ groupoid satisfies the groupoid axioms", axioms)

    def idem_units():
        emb = induced_subgroupoid(ctx.beta, idempotents(S))
        if emb.arrows != frozenset(ctx.beta.groupoid.units):
            return False, "idempotent germs are not exactly the units"
        return True, f"{len(emb.arrows)} units"

    _check(out, "germ.idempotent_units",
           "idempotent germs form exactly the unit space", idem_units)

    def clifford_bundle():
        if not is_clifford(S):
            return True, "vacuous: not Clifford"
        if not is_group_bundle(ctx.beta.groupoid):
            return False, "an arrow moves its unit"
        return True, "every arrow fixes its unit"

    _check(out, "germ.clifford_group_bundle",
           "Clifford semigroups have group-bundle universal groupoids",
           clifford_bundle)

    _check(out, "germ.kernel_is_centralizer",
           "the kernel of the universal action is the centralizer",
           lambda: (action_kernel(ctx.beta.action) == ctx.Z, f"{len(ctx.Z)} elements"))

    def fibers_match():
        """Certify each isotropy fiber isomorphic to its class group, no search.

        At the principal point x of a nonzero idempotent e (so m_x = e) the
        germ [s, x] maps to s m_x.  The map is checked to be a bijection of
        the fiber onto H_e, then a homomorphism of one-unit groupoids
        (validate_hom); a bijective homomorphism is an isomorphism.  Cost:
        linear in the fiber for the bijection, one table lookup per
        composable pair for the homomorphism.
        """
        germs = ctx.beta
        G = germs.groupoid
        for e in sorted(idempotents(S)):
            if e == S.zero:
                continue
            u = germs.unit_at_point[germs.principal_point(e)]
            fiber, arrows = extract_subgroupoid(
                G, frozenset(a for a in G.arrows() if G.r[a] == G.d[a] == u))
            block = h_class_of(S, e)
            back = {s: i for i, s in enumerate(block)}
            image = tuple(back.get(S.mul(s, germs.base_idempotent[x]))
                          for s, x in (germs.rep_of[a] for a in arrows))
            if None in image or sorted(image) != list(range(len(block))):
                return False, f"fiber at idempotent {e} differs from its class group"
            table = [[back[S.mul(a, b)] for b in block] for a in block]
            validate_hom(GroupoidHom(fiber, group_as_groupoid(table), image))
        return True, "all isotropy fibers certified isomorphic"

    _check(out, "germ.fibers_are_h_classes",
           "the isotropy group at each principal point is the idempotent's class group",
           fibers_match)

    def chain():
        G = ctx.beta.groupoid
        z_arrows = ctx.z_in_beta.arrows
        inner = iso_interior(G)
        iso = iso_bundle(G)
        if not (z_arrows <= inner <= iso):
            return False, "containment chain broken"
        for e in sorted(idempotents(S)):
            if e == S.zero:
                continue
            u = ctx.beta.unit_at_point[ctx.beta.principal_point(e)]
            z_fiber = _fiber_elements(ctx, z_arrows, u)
            iso_fiber = _fiber_elements(
                ctx, frozenset(a for a in iso if G.r[a] == G.d[a] == u), u)
            z_class = frozenset(next(b for b in ctx.mu.blocks if e in b))
            if z_fiber != z_class:
                return False, f"centralizer fiber at {e} is not its congruence class"
            if iso_fiber != frozenset(h_class_of(S, e)):
                return False, f"isotropy fiber at {e} is not its Green class"
        return True, f"|Z-germs|={len(z_arrows)} <= |interior|={len(inner)} <= |iso|={len(iso)}"

    _check(out, "groupoid.containment_chain",
           "centralizer germs sit inside the isotropy interior inside the isotropy",
           chain)

    def cryptic_equality():
        G = ctx.beta.groupoid
        inner = iso_interior(G)
        z_arrows = ctx.z_in_beta.arrows
        if is_cryptic(S):
            if z_arrows != inner:
                return False, "cryptic but the centralizer germs miss interior arrows"
            return True, f"equal arrow sets ({len(inner)} arrows)"
        extra = sorted(inner - z_arrows)
        if not extra:
            return False, "not cryptic but no witness arrow found"
        a = extra[0]
        label = interior_witnesses(G, iso_bundle(G))[a]
        return True, f"witness {G.label(a)} in interior via {label}"

    _check(out, "groupoid.cryptic_equality",
           "cryptic: centralizer germs equal the isotropy interior; else a witness exists",
           cryptic_equality)

    def z_subgroupoid_props():
        props = subgroupoid_properties(ctx.beta.groupoid, ctx.z_in_beta.arrows)
        missing = [n for n, ok in (("subgroupoid", props.is_subgroupoid),
                                   ("open", props.open), ("wide", props.wide),
                                   ("normal", props.normal), ("closed", props.closed))
                   if not ok]
        if missing:
            return False, f"missing: {','.join(missing)}"
        return True, "open, closed, wide, normal"

    _check(out, "groupoid.centralizer_subgroupoid",
           "the centralizer germs form an open wide normal (and closed) subgroupoid",
           z_subgroupoid_props)

    _check(out, "groupoid.principal_iff_effective",
           "essential principality and effectiveness agree on finite groupoids",
           lambda: (is_essentially_principal(ctx.beta.groupoid)
                    == is_effective(ctx.beta.groupoid),
                    f"both={is_essentially_principal(ctx.beta.groupoid)}"))

    return out


def global_universal_checks() -> list[CheckResult]:
    out: list[CheckResult] = []

    def sym_counts():
        from math import comb, factorial

        for n in range(5):
            expected = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
            if symmetric_inverse_monoid(n).size != expected:
                return False, f"count differs at n={n}"
        return True, "sizes 1, 2, 7, 34, 209 confirmed"

    _check(out, "spectrum.partial_bijection_counts",
           "partial bijection monoids have their predicted sizes up to n=4",
           sym_counts)
    return out


# ---------------------------------------------------------------------------
# tight suite


def run_tight_suite(ctx: SubjectContext) -> list[CheckResult]:
    S = ctx.S
    out: list[CheckResult] = []

    def ultra_ok():
        from .semilattices import tight_spectrum, ultrafilters

        filters = all_filters(ctx.E)
        ultra = ultrafilters(ctx.E)
        for F in ultra:
            if any(F < G for G in filters):
                return False, f"{sorted(F)} is not maximal"
        if tight_spectrum(ctx.E) != ultra:
            return False, "tight spectrum differs from the ultrafilters"
        return True, f"{len(ultra)} ultrafilters"

    _check(out, "tight.ultrafilters_maximal",
           "ultrafilters are the maximal filters and exhaust the tight spectrum",
           ultra_ok)

    def tight_valid():
        g = ctx.theta
        return True, f"{g.groupoid.n_arrows} arrows over {g.action.space_size} points"

    _check(out, "tight.action_valid",
           "the restriction to the tight spectrum is a valid action", tight_valid)

    def zero_disj_injective():
        if ctx.E.zero is None:
            return True, "vacuous: no zero"
        if not is_zero_disjunctive(ctx.E):
            return True, "vacuous: not 0-disjunctive"
        domains = {}
        for e in sorted(idempotents(S)):
            dom = ctx.theta.action.maps[e].domain
            if dom in domains.values():
                clash = next(f for f, d in domains.items() if d == dom)
                return False, f"idempotents {clash} and {e} share a domain"
            domains[e] = dom
        return True, "idempotents have distinct tight domains"

    _check(out, "tight.domain_injectivity",
           "0-disjunctive semilattices give idempotent-separating tight actions",
           zero_disj_injective)

    def zero_disj_interior():
        if ctx.E.zero is None or not is_zero_disjunctive(ctx.E):
            return True, "vacuous: not 0-disjunctive"
        inner = iso_interior(ctx.theta.groupoid)
        if ctx.z_in_theta.arrows != inner:
            return False, "centralizer germs differ from the isotropy interior"
        extra = ""
        if is_fundamental(S):
            if not is_essentially_principal(ctx.theta.groupoid):
                return False, "fundamental and 0-disjunctive but not essentially principal"
            extra = "; essentially principal (fundamental case)"
        return True, f"equal ({len(inner)} arrows){extra}"

    _check(out, "tight.interior_equality",
           "0-disjunctive: centralizer germs equal the tight isotropy interior",
           zero_disj_interior)

    def kernel_theta():
        if ctx.E.zero is None or not is_zero_disjunctive(ctx.E):
            return True, "vacuous: not 0-disjunctive"
        if action_kernel(ctx.theta.action) != ctx.Z:
            return False, "tight kernel differs from the centralizer"
        return True, f"kernel has {len(ctx.Z)} elements"

    _check(out, "tight.kernel_is_centralizer",
           "0-disjunctive: the tight action's kernel is the centralizer",
           kernel_theta)

    def base_dichotomy(germs, tag):
        J = action_kernel(germs.action)
        emb = induced_subgroupoid(germs, J)
        G = germs.groupoid
        iso = iso_bundle(G)
        if not emb.arrows <= iso:
            return False, f"{tag}: kernel germs leave the isotropy"
        if not is_open(G, emb.arrows):
            return False, f"{tag}: kernel germs are not open"
        if domains_form_base(germs.action):
            if emb.arrows != iso_interior(G):
                return False, f"{tag}: base hypothesis holds but equality fails"
            return True, f"{tag}: base holds, kernel germs = isotropy interior"
        return True, f"{tag}: no base; kernel germs open inside isotropy"

    _check(out, "tight.base_dichotomy_universal",
           "kernel germs are open isotropy; equal to the interior under the base hypothesis",
           lambda: base_dichotomy(ctx.beta, "universal"))
    _check(out, "tight.base_dichotomy_tight",
           "same dichotomy for the tight action",
           lambda: base_dichotomy(ctx.theta, "tight"))

    def graph_criterion():
        graph = NAMED_GRAPHS.get(ctx.name.partition(":")[2]) \
            if ctx.name.startswith("graph:") else None
        if graph is None:
            return True, "vacuous: not a graph semigroup subject"
        has_in_degree_one = any(graph.in_degree(v) == 1
                                for v in range(graph.n_vertices))
        disj = is_zero_disjunctive(ctx.E)
        if has_in_degree_one and disj:
            return False, "in-degree-1 vertex but still 0-disjunctive"
        if not has_in_degree_one and not disj:
            return False, "no in-degree-1 vertex but not 0-disjunctive"
        return True, f"in-degree-1 present={has_in_degree_one}, 0-disjunctive={disj}"

    _check(out, "tight.graph_zero_disjunctive",
           "a graph semigroup is 0-disjunctive exactly when no vertex has in-degree 1",
           graph_criterion)

    return out


# ---------------------------------------------------------------------------
# extension suite


def run_extension_suite(ctx: SubjectContext) -> list[CheckResult]:
    S = ctx.S
    out: list[CheckResult] = []

    proj_cache = {}

    def ctx_proj():
        if "p" not in proj_cache:
            proj_cache["p"] = mu_projection_hom(S)
        return proj_cache["p"]

    def strong_surjective():
        proj = ctx_proj()
        if not is_strongly_surjective(proj.hom):
            return False, "a fiber is not covered"
        note = ""
        if is_fundamental(S):
            if sorted(proj.hom.map) != list(proj.target.groupoid.arrows()):
                return False, "fundamental but the projection is not a bijection"
            note = " (isomorphism: fundamental case)"
        return True, (f"{proj.source.groupoid.n_arrows} arrows project onto "
                      f"{proj.target.groupoid.n_arrows}{note}")

    _check(out, "extension.projection_strongly_surjective",
           "the projection onto the fundamental quotient is strongly surjective",
           strong_surjective)

    def kernel_is_z():
        proj = ctx_proj()
        kernel = mu_projection_kernel(proj)
        z_arrows = ctx.z_in_beta.arrows
        if not z_arrows <= kernel:
            return False, "centralizer germs escape the kernel"
        T = proj.quotient.target
        unitary = (is_zero_e_unitary(T) if T.zero is not None else is_e_unitary(T))
        if not unitary:
            return True, "containment only (quotient is not (0-)E-unitary)"
        if kernel != z_arrows:
            return False, "unitary quotient but kernel exceeds the centralizer germs"
        return True, f"kernel = centralizer germs ({len(kernel)} arrows)"

    _check(out, "extension.projection_kernel",
           "the projection kernel is the centralizer groupoid when the quotient is (0-)E-unitary",
           kernel_is_z)

    def sigma_group():
        _, q = sigma_and_group_image(S)
        return True, f"group image of order {q.target.size}"

    _check(out, "extension.sigma_group_image",
           "the least group congruence has a group quotient", sigma_group)

    def cocycle():
        if S.zero is not None:
            return True, "vacuous: zero present"
        hom, germs = sigma_cocycle(S)
        units = frozenset(germs.groupoid.units)
        kernel = hom_kernel(hom)
        if not units <= kernel:
            return False, "units escape the cocycle kernel"
        if is_e_unitary(S):
            if kernel != units:
                return False, "E-unitary but the cocycle kernel exceeds the units"
            return True, f"kernel = units ({len(units)})"
        return True, f"kernel has {len(kernel)} arrows (not E-unitary)"

    _check(out, "extension.sigma_cocycle",
           "the group-image cocycle is a homomorphism; E-unitary kernels are the units",
           cocycle)

    transversal_cache = {}

    def ctx_transversal():
        if "r" not in transversal_cache:
            try:
                transversal_cache["r"] = find_split_transversal(S)
            except SearchBudgetExceeded:
                transversal_cache["r"] = "budget"
        return transversal_cache["r"]

    def transversal():
        r = ctx_transversal()
        if r == "budget":
            return True, "skipped: search budget exceeded"
        if r is None:
            return True, "no multiplicative transversal exists"
        defect = transversal_defect(S, munn_quotient(S), r)
        if defect is not None:
            x, y = defect
            return False, (f"not a section at class {x}" if y is None
                           else f"not multiplicative at ({x},{y})")
        return True, f"transversal {list(r)}"

    _check(out, "extension.split_transversal",
           "any split transversal found is a multiplicative section", transversal)

    def semidirect():
        r = ctx_transversal()
        if r in (None, "budget"):
            return True, "vacuous: no transversal"
        dec = semidirect_from_split(S, r)
        return True, (f"product with {dec.product.n_arrows} arrows certified "
                      f"isomorphic to the universal groupoid")

    _check(out, "extension.semidirect_decomposition",
           "split extensions decompose the universal groupoid as a semidirect product",
           semidirect)

    return out


# ---------------------------------------------------------------------------
# algebra suite


def run_algebra_suite(ctx: SubjectContext, csv_rows: list[str] | None = None
                      ) -> list[CheckResult]:
    out: list[CheckResult] = []
    G = ctx.beta.groupoid
    emb = ctx.z_in_beta
    H = emb.groupoid

    def cstar():
        rng = np.random.default_rng(_seed_for(ctx.name, "cstar"))
        worst = 0.0
        for i in range(ALGEBRA_SAMPLES):
            f = alg.random_function(G, rng)
            n2 = alg.reduced_norm(G, f) ** 2
            n1 = alg.reduced_norm(G, alg.convolve(alg.involution(f), f))
            err = abs(n1 - n2) / max(1.0, n2)
            worst = max(worst, err)
            if csv_rows is not None:
                csv_rows.append(f"{ctx.name},cstar,{i},{n2:.12g},{n1:.12g},{err:.3e}")
            if err > alg.NORM_TOL:
                return False, f"identity off by {err:.2e} at sample {i}"
        return True, f"{ALGEBRA_SAMPLES} samples, worst deviation {worst:.2e}"

    _check(out, "algebra.cstar_identity",
           "the norm satisfies the C*-identity on seeded random functions", cstar)

    def embed_checks():
        rng = np.random.default_rng(_seed_for(ctx.name, "embed"))
        worst = 0.0
        for i in range(ALGEBRA_SAMPLES):
            f = alg.random_function(H, rng)
            g = alg.random_function(H, rng)
            if not alg.embed(emb, alg.convolve(f, g)).close_to(
                    alg.convolve(alg.embed(emb, f), alg.embed(emb, g)), tol=alg.EXACT_TOL):
                return False, f"not multiplicative at sample {i}"
            if not alg.embed(emb, alg.involution(f)).close_to(
                    alg.involution(alg.embed(emb, f)), tol=alg.EXACT_TOL):
                return False, f"does not intertwine the involution at sample {i}"
            err = abs(alg.reduced_norm(G, alg.embed(emb, f)) - alg.reduced_norm(H, f))
            worst = max(worst, err)
            if csv_rows is not None:
                csv_rows.append(f"{ctx.name},embed,{i},,,{err:.3e}")
            if err > alg.NORM_TOL:
                return False, f"not isometric at sample {i} (off by {err:.2e})"
        return True, f"{ALGEBRA_SAMPLES} samples, worst norm deviation {worst:.2e}"

    _check(out, "algebra.embedding_isometric",
           "extension by zero from the centralizer bundle is an isometric *-homomorphism",
           embed_checks)

    def expectation():
        rng = np.random.default_rng(_seed_for(ctx.name, "expectation"))
        for i in range(20):
            f = alg.random_function(G, rng)
            once = alg.conditional_expectation(emb, f)
            if not alg.conditional_expectation(emb, alg.embed(emb, once)).close_to(once):
                return False, f"not idempotent at sample {i}"
            a = alg.random_function(H, rng)
            b = alg.random_function(H, rng)
            lhs = alg.conditional_expectation(
                emb, alg.convolve(alg.convolve(alg.embed(emb, a), f), alg.embed(emb, b)))
            rhs = alg.convolve(alg.convolve(a, once), b)
            if not lhs.close_to(rhs, tol=alg.EXACT_TOL):
                return False, f"bimodule identity fails at sample {i}"
            h = alg.random_function(H, rng)
            if not alg.conditional_expectation(emb, alg.embed(emb, h)).close_to(h):
                return False, f"does not restore subalgebra functions at sample {i}"
        return True, "20 samples: idempotent, bimodular, restores the subalgebra"

    _check(out, "algebra.conditional_expectation",
           "restriction to the centralizer bundle is an idempotent bimodule projection",
           expectation)

    def faithful():
        rng = np.random.default_rng(_seed_for(ctx.name, "faithful"))
        for i in range(ALGEBRA_SAMPLES):
            f = alg.random_function(G, rng)
            phi = alg.conditional_expectation(
                emb, alg.convolve(alg.involution(f), f))
            small = np.max(np.abs(phi.values), initial=0.0) < alg.EXACT_TOL
            if small and np.max(np.abs(f.values)) >= alg.EXACT_TOL:
                return False, f"vanishing expectation on a nonzero function (sample {i})"
        zero = alg.GroupoidFunction(G, np.zeros(G.n_arrows, dtype=complex))
        phi0 = alg.conditional_expectation(emb, alg.convolve(alg.involution(zero), zero))
        if np.max(np.abs(phi0.values), initial=0.0) != 0.0:
            return False, "nonzero expectation of zero"
        return True, f"{ALGEBRA_SAMPLES} samples faithful"

    _check(out, "algebra.expectation_faithful",
           "the conditional expectation of f*f vanishes only on the zero function",
           faithful)

    def assoc():
        rng = np.random.default_rng(_seed_for(ctx.name, "assoc"))
        for i in range(20):
            f = alg.random_function(G, rng, integral=True)
            g = alg.random_function(G, rng, integral=True)
            h = alg.random_function(G, rng, integral=True)
            left = alg.convolve(alg.convolve(f, g), h)
            right = alg.convolve(f, alg.convolve(g, h))
            if not (left.values == right.values).all():
                return False, f"associativity differs at sample {i}"
        return True, "20 integer samples associate exactly"

    _check(out, "algebra.convolution_associative",
           "convolution of integer-valued functions associates exactly", assoc)

    def antimult():
        rng = np.random.default_rng(_seed_for(ctx.name, "antimult"))
        for i in range(20):
            f = alg.random_function(G, rng)
            g = alg.random_function(G, rng)
            lhs = alg.involution(alg.convolve(f, g))
            rhs = alg.convolve(alg.involution(g), alg.involution(f))
            if not lhs.close_to(rhs, tol=alg.EXACT_TOL):
                return False, f"anti-multiplicativity fails at sample {i}"
        return True, "20 samples"

    _check(out, "algebra.involution_antimultiplicative",
           "the involution reverses convolution products", antimult)

    return out


def global_algebra_checks() -> list[CheckResult]:
    out: list[CheckResult] = []

    def reject_non_normal():
        from .actions import EmbeddedSubgroupoid
        from .errors import HypothesisFailed
        from .groupoids import extract_subgroupoid, make_groupoid

        idx = {(i, j, g): (i * 2 + j) * 2 + g
               for i in range(2) for j in range(2) for g in range(2)}
        r, d, inv = [], [], []
        for (i, j, g), _ in sorted(idx.items(), key=lambda kv: kv[1]):
            r.append(idx[(i, i, 0)])
            d.append(idx[(j, j, 0)])
            inv.append(idx[(j, i, g)])
        comp = {}
        for i in range(2):
            for j in range(2):
                for g in range(2):
                    for k in range(2):
                        for h in range(2):
                            comp[(idx[(i, j, g)], idx[(j, k, h)])] = idx[(i, k, g ^ h)]
        G = make_groupoid(r, d, inv, comp)
        arrows = frozenset({idx[(0, 0, 0)], idx[(0, 0, 1)], idx[(1, 1, 0)]})
        sub, order = extract_subgroupoid(G, arrows)
        emb = EmbeddedSubgroupoid(G, arrows, sub, order)
        try:
            alg.embed(emb, alg.delta(sub, 0))
        except HypothesisFailed as exc:
            if exc.name == "normal":
                return True, "non-normal bundle rejected"
            return False, f"rejected for the wrong reason: {exc.name}"
        return False, "non-normal bundle accepted"

    _check(out, "algebra.hypothesis_checker",
           "the embedding rejects a synthetic non-normal bundle", reject_non_normal)
    return out


# ---------------------------------------------------------------------------
# orchestration


_SUITES = {
    "universal": run_universal_suite,
    "tight": run_tight_suite,
    "extension": run_extension_suite,
    "algebra": run_algebra_suite,
}

_GLOBALS = {
    "universal": global_universal_checks,
    "algebra": global_algebra_checks,
}


def run_suite(name: str, S: InverseSemigroup, suite: str,
              csv_rows: list[str] | None = None) -> list[VerificationReport]:
    """Per-subject reports for one suite (or all of them)."""
    suites = SUITE_NAMES if suite == "all" else (suite,)
    reports = []
    for s in suites:
        if s not in _SUITES:
            raise StructureError(f"unknown suite '{s}'")
        ctx = SubjectContext(name, S)
        if s == "algebra":
            checks = run_algebra_suite(ctx, csv_rows)
        else:
            checks = _SUITES[s](ctx)
        reports.append(VerificationReport(name, s, checks))
    return reports


def global_reports(suite: str) -> list[VerificationReport]:
    suites = SUITE_NAMES if suite == "all" else (suite,)
    reports = []
    for s in suites:
        if s in _GLOBALS:
            reports.append(VerificationReport("(corpus-wide)", s, _GLOBALS[s]()))
    return reports


def render_reports(reports: list[VerificationReport]) -> str:
    lines = [r.render() for r in reports]
    total = sum(len(r.checks) for r in reports)
    failed = sum(1 for r in reports for c in r.checks if not c.passed)
    lines.append(f"== total: {total} checks, {total - failed} passed, "
                 f"{failed} failed ==")
    return "\n".join(lines) + "\n"
