"""The subject of a verification run, and the structure maps between its germ
groupoids: the projection onto the fundamental quotient, the cocycle into the
maximal group image, and the semidirect decomposition of a split extension of
the centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actions import (
    Action,
    GermGroupoid,
    action_kernel,
    certify_germ_groupoid,
    germ_groupoid,
    induced_subgroupoid,
    spectrum_action,
    validate_action,
)
from .algebra import embedding_defect, star_representation_defect
from .congruences import (
    QuotientMap,
    Relation,
    group_quotient,
    mu_relation,
    quotient,
    sigma_relation,
    split_transversal,
    transversal_defect,
    transversal_defect_text,
)
from .errors import NotATransversal, SearchBudgetExceeded, StructureError, ZeroPresent
from .groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    discrete_groupoid,
    is_normal_in,
    is_subgroupoid,
)
from .semigroups import InverseSemigroup, centralizer, first_index, is_clifford
from .semilattices import Semilattice, atoms, is_zero_disjunctive, semilattice_of, spectrum_points


@dataclass
class MunnProjection:
    """The germ groupoid of S, of S/mu on the matched spectrum, and the arrow map."""

    quotient: QuotientMap
    source: GermGroupoid
    target: GermGroupoid
    hom: GroupoidHom


@dataclass
class SplitDecomposition:
    """G(S) = G(Z) x| G(S/mu): row g of ``factors`` is the unique pair of a
    centralizer germ and a transversal germ with product g."""

    factors: np.ndarray     # (arrows of G(S), 2)


class Subject:
    """The structures of one semigroup that the paper's theorems relate.

    Each is built on first use and then shared.  ``suites.run_suite`` hands
    one Subject to every check and reuses it across consecutive calls on the
    same semigroup object, holding at most one, so each structure is built
    once per semigroup; every public function of this module builds from a
    fresh Subject.  Constructors validate their input, and the theorems
    about the results are checked by the verification suites: the germ
    groupoids' axioms (by their element maps), the projection and the
    cocycle being homomorphisms.  S/mu and S/sigma are certified once, by
    ``quotient``'s congruence check, and S/sigma as a group once, by
    ``group_quotient``.  Only ``split_decomposition`` certifies what it
    builds, since its certificate, each arrow's factorization, is the result.
    S/mu is read off S: when S is fundamental it is S, the projection's
    target is ``beta`` under the identity map and the split transversal is
    the identity section; otherwise S/mu acts by S's universal rows.
    """

    def __init__(self, S: InverseSemigroup):
        self.S = S

    @cached_property
    def E(self) -> Semilattice:
        return semilattice_of(self.S)

    @cached_property
    def points(self) -> np.ndarray:
        """The filter spectrum of E, each point named by its generator."""
        return spectrum_points(self.E)

    @cached_property
    def clifford(self) -> bool:
        return is_clifford(self.S)

    @cached_property
    def zero_disjunctive(self) -> bool:
        """Whether E has a zero and is 0-disjunctive."""
        return self.E.zero is not None and is_zero_disjunctive(self.E)

    @cached_property
    def Z(self) -> np.ndarray:
        """The centralizer of the idempotents, as an element mask."""
        return centralizer(self.S)

    @cached_property
    def mu(self) -> Relation:
        return mu_relation(self.S)

    @cached_property
    def mu_quotient(self) -> QuotientMap:
        return quotient(self.S, self.mu)

    @cached_property
    def sigma(self) -> Relation:
        return sigma_relation(self.S)

    @cached_property
    def group_image(self) -> QuotientMap:
        return group_quotient(self.S, self.sigma)

    @cached_property
    def universal(self) -> Action:
        return spectrum_action(self.S, self.points, self.E)

    @cached_property
    def tight(self) -> Action:
        return spectrum_action(self.S, atoms(self.E), self.E)

    @cached_property
    def beta(self) -> GermGroupoid:
        return germ_groupoid(self.universal)

    @cached_property
    def theta(self) -> GermGroupoid:
        return germ_groupoid(self.tight)

    @cached_property
    def z_in_beta(self):
        return induced_subgroupoid(self.beta, self.Z)

    @cached_property
    def star_defect(self) -> str | None:
        """``algebra.star_representation_defect`` of G(S), for three checks."""
        return star_representation_defect(self.beta.groupoid)

    @cached_property
    def bundle_defect(self) -> str | None:
        """``algebra.embedding_defect`` of the centralizer bundle, for three checks."""
        return embedding_defect(self.z_in_beta)

    @cached_property
    def certified_beta(self) -> GermGroupoid:
        """G(S), once ``actions.certify_germ_groupoid`` passes, for three checks."""
        certify_germ_groupoid(self.beta)
        return self.beta

    @cached_property
    def universal_kernel(self) -> np.ndarray:
        return action_kernel(self.universal)

    @cached_property
    def tight_kernel(self) -> np.ndarray:
        return action_kernel(self.tight)

    @cached_property
    def projection(self) -> MunnProjection:
        """The arrow map [s, F] -> [mu(s), F] onto the germs of S/mu over the
        filters of E(S), point for point.  A class acts by the row of any
        member in S's universal action: mu lies inside H, so related s, t
        share s*s, and s e s* = t e t* for every idempotent e, so they move
        every filter alike.  The action is certified on the generators of
        S/mu, and the arrow map is one gather of the target's ``germ_at``; a
        germ missing there is reported for the first arrow, as ``germ``
        would.  When S is fundamental, S/mu is S, so the target is G(S)
        itself and the map is the identity."""
        q, source = self.mu_quotient, self.beta
        if self.mu.is_identity:
            identity = np.arange(source.groupoid.n_arrows)
            return MunnProjection(q, source, source,
                                  GroupoidHom(source.groupoid, source.groupoid, identity))
        u = self.universal
        target = germ_groupoid(validate_action(q.target, u.space_size, u.maps[self.mu.reps],
                                               u.point_labels, u.space_basis))
        rep_s, rep_x = source.rep_of.T
        images = q.projection[rep_s]
        arrow_map = target.germ_at[images, rep_x]
        hit = first_index(arrow_map < 0)
        if hit is not None:
            (a,) = hit
            raise StructureError(f"point {rep_x[a]} is outside the domain of element {images[a]}")
        hom = GroupoidHom(source.groupoid, target.groupoid, arrow_map)
        return MunnProjection(q, source, target, hom)

    @cached_property
    def cocycle(self) -> tuple[GroupoidHom, GermGroupoid]:
        """The map into the maximal group image, germ [s, F] -> class of s;
        the image, a group by ``group_quotient``, is not validated again."""
        if self.S.zero is not None:
            raise ZeroPresent("the maximal group image of a zero semigroup is trivial")
        q, germs = self.group_image, self.beta
        T = q.target
        e = np.full(T.size, T.idempotent_array[0])
        target = discrete_groupoid(e, e, T.inv, T.table, T.labels)
        return GroupoidHom(germs.groupoid, target, q.projection[germs.rep_of[:, 0]]), germs

    @cached_property
    def transversal(self) -> tuple[int, ...] | None | str:
        """The split transversal of S/mu, None when none exists, or "budget".
        When S is fundamental every class is one element, and the identity
        is the one section, the one that the search would find."""
        if self.mu.is_identity:
            return tuple(range(self.S.size))
        try:
            return split_transversal(self.S, self.mu, self.mu_quotient)
        except SearchBudgetExceeded:
            return "budget"

    def split_decomposition(self, r: tuple[int, ...]) -> SplitDecomposition:
        """``semidirect_factors`` over the germs of Z and of the transversal
        r, taken as given: ``extension.split_transversal`` certifies the one
        that the search finds.  r is a multiplicative section, so its germs,
        the embedded copy of the quotient, are a subgroupoid, which
        ``semidirect_factors`` checks."""
        k_arrows = self.beta.germs_of(np.asarray(r, dtype=np.intp))
        factors = semidirect_factors(self.beta.groupoid, self.z_in_beta.arrows, k_arrows)
        return SplitDecomposition(factors)


def universal_germs(S: InverseSemigroup) -> GermGroupoid:
    return Subject(S).beta


def mu_projection_hom(S: InverseSemigroup) -> MunnProjection:
    """The arrow map [s, F] -> [mu(s), F] onto the germs of S/mu."""
    return Subject(S).projection


def sigma_cocycle(S: InverseSemigroup) -> tuple[GroupoidHom, GermGroupoid]:
    """The map into the maximal group image, germ [s, F] -> class of s."""
    return Subject(S).cocycle


def semidirect_from_split(S: InverseSemigroup, r: tuple[int, ...]
                          ) -> SplitDecomposition:
    """G(Z) x| G(S/mu) for a checked transversal r, certified isomorphic to G(S)."""
    sub = Subject(S)
    _check_transversal(S, sub.mu_quotient, r)
    return sub.split_decomposition(r)


def _check_transversal(S: InverseSemigroup, q: QuotientMap, r: tuple[int, ...]) -> None:
    if len(r) != q.target.size:
        raise NotATransversal("one representative per class required")
    if not all(0 <= x < S.size for x in r):
        raise NotATransversal(f"representatives must be elements 0..{S.size - 1}")
    defect = transversal_defect(S, q, r)
    if defect is not None:
        raise NotATransversal(transversal_defect_text(defect))


def semidirect_factors(G: FiniteGroupoid, h_arrows: np.ndarray,
                       k_arrows: np.ndarray) -> np.ndarray:
    """Certify G = H x| K, for arrow masks H and K of G, by unique factorization.

    Checks that H is a group bundle (r = d on it), a subgroupoid and normal,
    that K is a subgroupoid, and that the pairs (eta, gamma) in H x K with
    r(eta) = r(gamma) multiply, by one gather of the table, onto the arrows
    of G bijectively; row g of the result is the pair with eta gamma = g.
    Then (eta, gamma) -> eta gamma is an isomorphism from H x| K, K acting
    on H by conjugation: by associativity in G, (eta1 gamma1)(eta2 gamma2) =
    eta1 (gamma1 eta2 gamma1^-1) . gamma1 gamma2 exactly where d(gamma1) =
    r(gamma2), the middle factor in H by normality, so the product is never
    built.  That G is a groupoid is certified apart, for G(S) by
    ``germ.groupoid_axioms``.  A failure names the first hypothesis that
    fails, or else the first pair (eta, gamma) with no product, or else the
    first arrow with no factorization or with several.
    """
    h, k = np.flatnonzero(h_arrows), np.flatnonzero(k_arrows)
    if (G.r[h] != G.d[h]).any():
        raise StructureError("the bundle H is not a group bundle")
    if not is_subgroupoid(G, h_arrows):
        raise StructureError("the bundle H is not a subgroupoid")
    if not is_normal_in(G, h_arrows):
        raise StructureError("the bundle H is not normal")
    if not is_subgroupoid(G, k_arrows):
        raise StructureError("the complement K is not a subgroupoid")
    eta, gamma = np.nonzero(G.r[h][:, None] == G.r[k])
    eta, gamma = h[eta], k[gamma]
    products = G.table[eta, gamma]
    hit = first_index(products < 0)
    if hit is not None:
        raise StructureError(f"eta {eta[hit]} and gamma {gamma[hit]} have no product")
    count = np.bincount(products, minlength=G.n_arrows)
    hit = first_index(count != 1)
    if hit is not None:
        (g,) = hit
        raise StructureError(f"arrow {g} has no factorization eta gamma" if count[g] == 0
                             else f"arrow {g} has {count[g]} factorizations eta gamma")
    factors = np.empty((G.n_arrows, 2), dtype=np.intp)
    factors[products] = np.stack((eta, gamma), axis=1)
    return factors
