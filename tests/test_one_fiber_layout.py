"""The fibers are laid out in one place.

``FiniteGroupoid.fibers_by_size`` stacks every unit's d-fiber by one sort,
and ``fiber_stacks`` reads the orbit representatives only.  This scan reads
``groupoids.py`` with ``ast`` only: no member of ``FiniteGroupoid`` runs a
Python ``for`` loop or a comprehension over ``self.units``, so no per-unit
layout comes back.  Loops over ``self.orbit_units`` are allowed."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "germlab" / "groupoids.py"


def _reads_units(node: ast.AST) -> bool:
    """Whether an expression reads ``self.units`` anywhere inside it."""
    return any(isinstance(n, ast.Attribute) and n.attr == "units"
               and isinstance(n.value, ast.Name) and n.value.id == "self"
               for n in ast.walk(node))


def unit_loops(source: str, cls: str = "FiniteGroupoid") -> list[str]:
    """The members of the class that loop over ``self.units``, once per loop:
    a ``for`` statement or a comprehension whose iterable reads it."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for member in node.body:
                found += [member.name for n in ast.walk(member)
                          if isinstance(n, (ast.For, ast.comprehension)) and _reads_units(n.iter)]
    return found


def test_the_scan_finds_a_loop_over_the_units():
    source = ("class FiniteGroupoid:\n"
              "    def per_unit(self):\n"
              "        for u in self.units:\n"
              "            pass\n"
              "    def paired(self):\n"
              "        return [x for u, x in zip(self.units, self.other)]\n"
              "    def orbits(self):\n"
              "        for x in self.orbit_units:\n"
              "            pass\n"
              "    def mask(self):\n"
              "        return list(self.units)\n"
              "class Other:\n"
              "    def per_unit(self):\n"
              "        for u in self.units:\n"
              "            pass\n")
    assert unit_loops(source) == ["per_unit", "paired"]


def test_no_groupoid_member_loops_over_the_units():
    assert unit_loops(SOURCE.read_text(encoding="utf-8")) == []
