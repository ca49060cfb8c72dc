"""Finite inverse semigroups, groupoids of germs, and convolution algebras.

The package builds finite inverse semigroups from multiplication tables,
computes their order and congruence structure, realizes the universal and
tight actions on filter spectra, constructs the groupoids of germs with an
explicit topology basis, and verifies the structural facts relating the
centralizer of the idempotents to isotropy interiors, action kernels,
semidirect decompositions, and conditional expectations on the finite
convolution *-algebras.
"""

from .actions import (
    Action,
    DirectedGraph,
    GermGroupoid,
    action_kernel,
    centralizer_germs,
    domains_form_base,
    germ_groupoid,
    graph_inverse_semigroup,
    induced_subgroupoid,
    tight_action,
    universal_action,
    validate_action,
)
from .algebra import (
    GroupoidFunction,
    RegularRepresentation,
    conditional_expectation,
    convolve,
    delta,
    embed,
    involution,
    reduced_norm,
    regular_representation,
)
from .builtins import builtin, corpus
from .congruences import (
    QuotientMap,
    Relation,
    find_split_transversal,
    kernel_of,
    mu_relation,
    quotient,
    sigma_and_group_image,
)
from .errors import StructureError
from .extensions import (
    mu_projection_hom,
    semidirect_from_split,
    sigma_cocycle,
    universal_germs,
)
from .groupoids import (
    Cuts,
    FiniteGroup,
    FiniteGroupoid,
    GroupoidHom,
    fiber_group,
    groupoid_isomorphic,
    is_effective,
    is_essentially_principal,
    is_group_bundle,
    iso_bundle,
    iso_interior,
    subgroupoid_properties,
)
from .semigroups import (
    InverseSemigroup,
    centralizer,
    h_classes,
    is_clifford,
    is_e_unitary,
    is_zero_e_unitary,
    natural_leq,
    validate_inverse_semigroup,
)
from .semilattices import (
    Semilattice,
    all_filters,
    is_zero_disjunctive,
    munn_semigroup,
    semilattice_of,
    symmetric_inverse_monoid,
    ultrafilters,
)

__version__ = "0.1.0"
