"""One index format: every index sequence the core types store is an intp array.

``run_suite(name, S, "all")`` runs every check on a subject; then each index
field that the run's Subject reaches is read: the inverses of S and of both
quotients, the parent indices of E, the units and orbit units of every
groupoid the run built, the germ lookups, both structure maps and both
projections.  The cocycle, and the group it maps into, exist only when S has
no zero."""

import numpy as np
import pytest

from germlab import suites
from germlab.builtins import CORPUS_NAMES, builtin
from germlab.suites import run_suite


def index_fields(sub) -> dict[str, object]:
    """The index fields reachable from a Subject whose suites have run, by name."""
    fields = {"S.inv": sub.S.inv, "E.parent_index": sub.E.parent_index}
    germs = {"universal": sub.beta, "tight": sub.theta, "S/mu": sub.projection.target}
    groupoids = {name: g.groupoid for name, g in germs.items()}
    groupoids["Z-germs"] = sub.z_in_beta.groupoid
    homs = {"projection": sub.projection.hom}
    if sub.S.zero is None:
        homs["cocycle"], _ = sub.cocycle
        groupoids["group image"] = homs["cocycle"].target
    for name, G in groupoids.items():
        fields[f"{name} units"], fields[f"{name} orbit_units"] = G.units, G.orbit_units
    for name, g in germs.items():
        fields[f"{name} unit_at_point"] = g.unit_at_point
        fields[f"{name} base_idempotent"] = g.base_idempotent
    for name, hom in homs.items():
        fields[f"{name} map"] = hom.map
    for name, q in (("S/mu", sub.mu_quotient), ("S/sigma", sub.group_image)):
        fields[f"{name} projection"], fields[f"{name} inv"] = q.projection, q.target.inv
    return fields


@pytest.mark.parametrize("name", CORPUS_NAMES + ("symmetric:4", "group:z70"))
def test_every_index_field_is_an_intp_array(name):
    S = builtin(name)
    run_suite(name, S, "all")
    fields = index_fields(suites._subject(S))
    assert ("cocycle map" in fields) == (S.zero is None)
    wrong = {field: getattr(value, "dtype", type(value).__name__)
             for field, value in fields.items()
             if not (isinstance(value, np.ndarray) and value.dtype == np.intp)}
    assert wrong == {}
