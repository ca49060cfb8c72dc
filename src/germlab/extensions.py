"""Structure maps between germ groupoids: the projection onto the fundamental
quotient, the cocycle into the maximal group image, and the semidirect
decomposition of a split extension of the centralizer.

The quotient's filter spectrum is taken over the idempotent semilattice of
the original semigroup (the two are isomorphic, so points correspond one to
one).  In particular the quotient inherits the original's zero designation:
a zero-free semigroup may acquire an absorbing element when collapsed, but
its filters still range over the whole semilattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (
    Action,
    GermGroupoid,
    _spectrum_action,
    centralizer_germs,
    germ_groupoid,
    universal_action,
)
from .congruences import (
    QuotientMap,
    munn_quotient,
    sigma_and_group_image,
    transversal_defect,
)
from .errors import NotATransversal, StructureError, ZeroPresent
from .groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    conjugation_action,
    group_as_groupoid,
    hom_kernel,
    is_strongly_surjective,
    is_subgroupoid,
    semidirect_product,
    validate_hom,
)
from .semigroups import InverseSemigroup
from .semilattices import all_filters, semilattice_of


def universal_germs(S: InverseSemigroup) -> GermGroupoid:
    return germ_groupoid(universal_action(S))


def tight_germs(S: InverseSemigroup) -> GermGroupoid:
    from .actions import tight_action

    return germ_groupoid(tight_action(S))


@dataclass
class MunnProjection:
    """The germ groupoid of S, of S/mu on the matched spectrum, and the arrow map."""

    quotient: QuotientMap
    source: GermGroupoid
    target: GermGroupoid
    hom: GroupoidHom


def _quotient_germs_on_matched_spectrum(S: InverseSemigroup, q: QuotientMap,
                                        source_action: Action) -> GermGroupoid:
    """Germs of S/mu over the filters of E(S), point-for-point aligned."""
    T = q.target
    E_S = semilattice_of(S)
    E_T = semilattice_of(T)
    if E_S.size != E_T.size:
        raise StructureError("quotient does not separate idempotents")
    translate = {}
    t_back = {e: i for i, e in enumerate(E_T.parent_index)}
    for i, e in enumerate(E_S.parent_index):
        translate[i] = t_back[q.projection[e]]
    # inherit the zero designation from S rather than redetecting it
    E_T.zero = translate[E_S.zero] if E_S.zero is not None else None
    filters_S = all_filters(E_S)
    matched = [frozenset(translate[i] for i in F) for F in filters_S]
    action = _spectrum_action(T, matched, E_T)
    return germ_groupoid(action)


def mu_projection_hom(S: InverseSemigroup) -> MunnProjection:
    """The arrow map [s, F] -> [mu(s), F]; strong surjectivity is checked."""
    q = munn_quotient(S)
    source = universal_germs(S)
    target = _quotient_germs_on_matched_spectrum(S, q, source.action)
    if source.action.space_size != target.action.space_size:
        raise StructureError("spectra of S and S/mu do not match")
    arrow_map = []
    for s, x in source.rep_of:
        arrow_map.append(target.germ(q.projection[s], x))
    hom = validate_hom(GroupoidHom(source.groupoid, target.groupoid, tuple(arrow_map)))
    if not is_strongly_surjective(hom):
        raise StructureError("projection onto the quotient is not strongly surjective")
    return MunnProjection(q, source, target, hom)


def mu_projection_kernel(proj: MunnProjection) -> frozenset[int]:
    return hom_kernel(proj.hom)


def sigma_cocycle(S: InverseSemigroup) -> tuple[GroupoidHom, GermGroupoid]:
    """The map into the maximal group image, germ [s, F] -> class of s."""
    if S.zero is not None:
        raise ZeroPresent("the maximal group image of a zero semigroup is trivial")
    sigma, q = sigma_and_group_image(S)
    germs = universal_germs(S)
    target = group_as_groupoid(q.target.table,
                               tuple(q.target.label(x) for x in q.target.elements()))
    arrow_map = tuple(q.projection[s] for s, _ in germs.rep_of)
    hom = validate_hom(GroupoidHom(germs.groupoid, target, arrow_map))
    return hom, germs


@dataclass
class SplitDecomposition:
    """Semidirect product of the centralizer bundle by the quotient copy, with
    the multiplication map onto the original groupoid as the certificate."""

    product: FiniteGroupoid
    iso: GroupoidHom        # product -> G(S), bijective
    germs: GermGroupoid


def _check_transversal(S: InverseSemigroup, q: QuotientMap, r: tuple[int, ...]) -> None:
    if len(r) != q.target.size:
        raise NotATransversal("one representative per class required")
    defect = transversal_defect(S, q, r)
    if defect is not None:
        x, y = defect
        raise NotATransversal(f"class {x} representative projects elsewhere" if y is None
                              else f"representatives split at ({x},{y})")


def transversal_arrows(germs: GermGroupoid, q: QuotientMap, r: tuple[int, ...]
                       ) -> frozenset[int]:
    """Germs of transversal representatives: the embedded copy of the quotient."""
    image = set(r)
    chosen = frozenset(a for (s, x), a in germs.arrow_of.items() if s in image)
    if not is_subgroupoid(germs.groupoid, chosen):
        raise StructureError("transversal germs do not form a subgroupoid")
    return chosen


def semidirect_from_split(S: InverseSemigroup, r: tuple[int, ...]
                          ) -> SplitDecomposition:
    """Build G(Z) x| G(S/mu) inside G(S) and certify it is isomorphic to G(S).

    The certifying map multiplies the two coordinates in the ambient groupoid;
    it is checked to be a bijective homomorphism arrow by arrow.
    """
    q = munn_quotient(S)
    _check_transversal(S, q, r)
    germs = universal_germs(S)
    ambient = germs.groupoid
    h_arrows = centralizer_germs(germs).arrows
    g_arrows = transversal_arrows(germs, q, r)
    H, G, act = conjugation_action(ambient, h_arrows, g_arrows)
    product = semidirect_product(H, G, act)

    h_order = sorted(h_arrows)
    g_order = sorted(g_arrows)
    arrow_map = []
    for eta, gamma in product.pair_coords:  # type: ignore[attr-defined]
        arrow_map.append(ambient.comp[(h_order[eta], g_order[gamma])])
    hom = validate_hom(GroupoidHom(product, ambient, tuple(arrow_map)))
    if sorted(arrow_map) != sorted(ambient.arrows()):
        raise StructureError("split decomposition map is not a bijection")
    return SplitDecomposition(product, hom, germs)


def split_iso_check(S: InverseSemigroup, r: tuple[int, ...]) -> bool:
    """True when the semidirect product reassembles the universal groupoid."""
    decomposition = semidirect_from_split(S, r)
    return decomposition.iso is not None
